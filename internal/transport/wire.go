package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/graph"
	"gcplus/internal/shardhost"
	"gcplus/internal/trace"
)

// Wire format. Every message travels in one frame, framed exactly like
// the internal/persist WAL:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// Client→server payloads are {msg type byte, request id uvarint, body};
// server→client payloads are {msgReply, request id uvarint, echoed msg
// type byte, queue-len uvarint, pending-repairs uvarint, body}. The
// piggybacked queue/repair sample keeps the client's Signals fresh with
// zero extra round trips — exactly as fresh as the traffic that makes
// the pressure ladder care.
//
// Bodies use the persist codec conventions: uvarints, length-prefixed
// byte strings, bounds-checked decode with an error latch and
// allocation guards, so a malformed or truncated frame produces a
// decode error — never a panic, never a silent truncation. Query graphs
// ride as length-prefixed internal/graph text (graph.Marshal); update
// operations in the internal/changeplan binary op codec, whose ADD ops
// embed the same graph text.

// Message types.
const (
	msgHello byte = iota + 1
	msgQuery
	msgApplyOp
	msgAppendWAL
	msgSync
	msgSnapshot
	msgStats
	msgCancel
	msgReply
)

// protocolVersion is the version the client announces in its HELLO
// frame (a trailing uvarint the v1 server ignored; absence means v1).
// Version 2 adds the tracing extensions: QUERY and APPLY_OP requests
// may carry a trailing trace context, and the server appends a trailing
// extension to QUERY replies (queue nanos + piggybacked span block) and
// APPEND_WAL replies (append nanos) when the connection announced ≥ 2.
// Request extensions are self-describing trailing blocks, so the
// decoders accept both shapes regardless of the announced version.
const protocolVersion = 2

// appendTraceCtx appends the v2 trace-context extension. Callers only
// append it for a valid context; an absent block decodes as the zero
// context.
func appendTraceCtx(dst []byte, tc trace.Context) []byte {
	dst = appendUvarint(dst, uint64(tc.TraceID))
	dst = appendUvarint(dst, uint64(tc.Parent))
	return appendBool(dst, tc.Sampled)
}

func (d *dec) traceCtx() trace.Context {
	var tc trace.Context
	tc.TraceID = trace.ID(d.uvarint())
	tc.Parent = trace.SpanID(d.uvarint())
	tc.Sampled = d.bool()
	return tc
}

// MaxFramePayload bounds a frame payload (1 GiB, matching the persist
// framing). An oversized outbound frame is rejected client-side with
// StatusBadRequest before anything is sent; an oversized inbound length
// prefix poisons the connection.
const MaxFramePayload = 1 << 30

const frameHeaderSize = 8

// appendFrame frames payload into dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame reads one frame payload, enforcing the size bound and the
// checksum. maxPayload <= 0 means MaxFramePayload.
func readFrame(r io.Reader, maxPayload int) ([]byte, error) {
	if maxPayload <= 0 {
		maxPayload = MaxFramePayload
	}
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > uint32(maxPayload) {
		return nil, fmt.Errorf("transport: frame payload %d exceeds limit %d", n, maxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("transport: frame checksum mismatch")
	}
	return payload, nil
}

// --- primitive append helpers ---

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendDuration(dst []byte, d time.Duration) []byte {
	if d < 0 {
		d = 0
	}
	return appendUvarint(dst, uint64(d))
}

// --- bounds-checked decoder (persist codec idiom: latch the first
// error, guard every allocation against the remaining byte count) ---

type dec struct {
	data []byte
	err  error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("transport: "+format, args...)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail("truncated or malformed uvarint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// count decodes a collection length and guards the coming allocation:
// the collection cannot hold more elements than the remaining bytes
// divided by the minimum element width.
func (d *dec) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(len(d.data)/minBytes) {
		d.fail("count %d exceeds remaining payload", v)
		return 0
	}
	return int(v)
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.fail("truncated byte")
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) bytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

func (d *dec) str() string { return string(d.bytes()) }

func (d *dec) duration() time.Duration {
	v := d.uvarint()
	if v > math.MaxInt64 {
		d.fail("duration overflows int64")
		return 0
	}
	return time.Duration(v)
}

func (d *dec) intNonNeg() int {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail("value %d overflows int32 range", v)
		return 0
	}
	return int(v)
}

// --- query request ---

// AppendQueryRequest encodes a QueryRequest body. deadline is the
// remaining time budget (0 = none), shipped as a relative duration so
// the two processes need no clock agreement.
func AppendQueryRequest(dst []byte, req *shardhost.QueryRequest, deadline time.Duration) []byte {
	dst = append(dst, byte(req.Kind))
	dst = appendDuration(dst, deadline)
	dst = appendUvarint(dst, uint64(req.Opts.Limit))
	dst = appendBool(dst, req.Opts.BypassCache)
	dst = appendUvarint(dst, uint64(req.Opts.MaxVerifyParallelism))
	dst = appendBytes(dst, graph.Marshal(req.Query))
	if req.Trace.Valid() {
		dst = appendTraceCtx(dst, req.Trace)
	}
	return dst
}

// DecodeQueryRequest is AppendQueryRequest's inverse.
func DecodeQueryRequest(data []byte) (*shardhost.QueryRequest, time.Duration, error) {
	d := &dec{data: data}
	req := &shardhost.QueryRequest{Kind: cache.Kind(d.byte())}
	deadline := d.duration()
	req.Opts.Limit = d.intNonNeg()
	req.Opts.BypassCache = d.bool()
	req.Opts.MaxVerifyParallelism = d.intNonNeg()
	gb := d.bytes()
	if d.err == nil && len(d.data) > 0 {
		req.Trace = d.traceCtx()
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	if req.Kind != cache.KindSub && req.Kind != cache.KindSuper {
		return nil, 0, badRequestf("transport: unknown query kind %d", req.Kind)
	}
	g, err := graph.Unmarshal(gb)
	if err != nil {
		return nil, 0, err
	}
	req.Query = g
	if len(d.data) != 0 {
		return nil, 0, badRequestf("transport: %d trailing bytes after query request", len(d.data))
	}
	return req, deadline, nil
}

// --- op request ---

// AppendOpRequest encodes an OpRequest body via the changeplan binary
// codec (which carries the graph for ADD ops).
func AppendOpRequest(dst []byte, req *shardhost.OpRequest) ([]byte, error) {
	dst = appendUvarint(dst, uint64(req.GlobalID))
	dst, err := req.Op.AppendBinary(dst)
	if err != nil {
		return dst, err
	}
	if req.Trace.Valid() {
		dst = appendTraceCtx(dst, req.Trace)
	}
	return dst, nil
}

// DecodeOpRequest is AppendOpRequest's inverse.
func DecodeOpRequest(data []byte) (*shardhost.OpRequest, error) {
	d := &dec{data: data}
	gid := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if gid > math.MaxInt32 {
		return nil, badRequestf("transport: global id %d out of range", gid)
	}
	op, rest, err := changeplan.DecodeOp(d.data)
	if err != nil {
		return nil, err
	}
	req := &shardhost.OpRequest{Op: op, GlobalID: int(gid)}
	if len(rest) != 0 {
		d.data = rest
		req.Trace = d.traceCtx()
		if d.err != nil {
			return nil, d.err
		}
		if len(d.data) != 0 {
			return nil, badRequestf("transport: %d trailing bytes after op request", len(d.data))
		}
	}
	return req, nil
}

// --- query reply ---

// AppendQueryReply encodes a QueryReply body: host nanos, the taxonomy-
// classified error, and on success the ascending answer ids
// (delta-coded) plus the full per-shard QueryStats — every field the
// router aggregates or traces, so those are bit-identical across
// transports (SearchStates, which nothing above the core reads yet, is
// not carried). When
// ver ≥ 2 a trailing extension carries the queue wait and the shard's
// piggybacked span block — on error replies too, so a cancelled query
// keeps its partial trace.
func AppendQueryReply(dst []byte, reply *shardhost.QueryReply, ver uint64) []byte {
	dst = appendUvarint(dst, uint64(max64(reply.HostNanos, 0)))
	dst = appendWireError(dst, reply.Err)
	if reply.Err != nil {
		return appendQueryReplyExt(dst, reply, ver)
	}
	dst = appendUvarint(dst, uint64(len(reply.IDs)))
	prev := 0
	for _, id := range reply.IDs {
		dst = appendUvarint(dst, uint64(id-prev))
		prev = id
	}
	st := &reply.Stats
	dst = append(dst, byte(st.Kind))
	dst = appendUvarint(dst, uint64(st.CandidatesBefore))
	dst = appendUvarint(dst, uint64(st.SubIsoTests))
	dst = appendUvarint(dst, uint64(st.TestsSaved))
	dst = appendUvarint(dst, uint64(st.ContainingHits))
	dst = appendUvarint(dst, uint64(st.ContainedHits))
	dst = appendUvarint(dst, uint64(st.IsoHits))
	dst = appendBool(dst, st.ExactHit)
	dst = appendBool(dst, st.EmptyShortcut)
	dst = appendDuration(dst, st.QueryTime)
	dst = appendDuration(dst, st.VerifyTime)
	dst = appendDuration(dst, st.VerifyCPUTime)
	dst = appendUvarint(dst, uint64(st.VerifyWorkers))
	dst = appendDuration(dst, st.HitTime)
	dst = appendUvarint(dst, uint64(st.HitScanned))
	dst = appendUvarint(dst, uint64(st.HitCandidates))
	dst = appendDuration(dst, st.Overhead)
	dst = appendDuration(dst, st.ConsistencyTime)
	dst = appendBool(dst, st.CacheBypassed)
	dst = appendDuration(dst, st.PlanTime)
	dst = appendString(dst, st.PlanAlgorithm)
	dst = appendBool(dst, st.PlanCached)
	dst = appendBool(dst, st.Truncated)
	return appendQueryReplyExt(dst, reply, ver)
}

// appendQueryReplyExt appends the v2 reply extension: queue wait nanos
// plus the span block as one length-delimited field (bounds-checked on
// decode by the ordinary bytes guard).
func appendQueryReplyExt(dst []byte, reply *shardhost.QueryReply, ver uint64) []byte {
	if ver < 2 {
		return dst
	}
	dst = appendUvarint(dst, uint64(max64(reply.QueueNanos, 0)))
	return appendBytes(dst, trace.AppendSpans(nil, reply.Spans))
}

// decodeQueryReplyExt parses the optional trailing reply extension;
// absence (a v1 peer) leaves the reply's trace fields zero.
func decodeQueryReplyExt(d *dec, reply *shardhost.QueryReply) {
	if d.err != nil || len(d.data) == 0 {
		return
	}
	reply.QueueNanos = int64(d.duration())
	sb := d.bytes()
	if d.err != nil {
		return
	}
	if len(sb) > 0 {
		spans, serr := trace.DecodeSpans(sb)
		if serr != nil {
			d.fail("span block: %v", serr)
			return
		}
		reply.Spans = spans
	}
}

// DecodeQueryReply is AppendQueryReply's inverse.
func DecodeQueryReply(data []byte, reply *shardhost.QueryReply) error {
	d := &dec{data: data}
	reply.HostNanos = int64(d.uvarint())
	werr := decodeWireError(d)
	if d.err != nil {
		return d.err
	}
	if werr != nil {
		reply.Err = werr
		decodeQueryReplyExt(d, reply)
		if d.err != nil {
			return d.err
		}
		if len(d.data) != 0 {
			return fmt.Errorf("transport: %d trailing bytes after query error", len(d.data))
		}
		return nil
	}
	n := d.count(1)
	ids := make([]int, 0, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		delta := d.uvarint()
		if i > 0 && delta == 0 {
			// A legitimate answer set is strictly ascending; a zero delta
			// after the first id means a duplicated answer.
			d.fail("answer ids not strictly ascending")
			break
		}
		prev += delta
		if prev > math.MaxInt32 {
			d.fail("answer id %d out of range", prev)
			break
		}
		ids = append(ids, int(prev))
	}
	st := &reply.Stats
	st.Kind = cache.Kind(d.byte())
	st.CandidatesBefore = d.intNonNeg()
	st.SubIsoTests = d.intNonNeg()
	st.TestsSaved = d.intNonNeg()
	st.ContainingHits = d.intNonNeg()
	st.ContainedHits = d.intNonNeg()
	st.IsoHits = d.intNonNeg()
	st.ExactHit = d.bool()
	st.EmptyShortcut = d.bool()
	st.QueryTime = d.duration()
	st.VerifyTime = d.duration()
	st.VerifyCPUTime = d.duration()
	st.VerifyWorkers = d.intNonNeg()
	st.HitTime = d.duration()
	st.HitScanned = d.intNonNeg()
	st.HitCandidates = d.intNonNeg()
	st.Overhead = d.duration()
	st.ConsistencyTime = d.duration()
	st.CacheBypassed = d.bool()
	st.PlanTime = d.duration()
	st.PlanAlgorithm = d.str()
	st.PlanCached = d.bool()
	st.Truncated = d.bool()
	decodeQueryReplyExt(d, reply)
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after query reply", len(d.data))
	}
	reply.IDs = ids
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

var _ = core.QueryStats{} // wire fields mirror core.QueryStats; keep the import explicit
