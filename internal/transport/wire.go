package transport

import (
	"math"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/graph"
	"gcplus/internal/shardhost"
	"gcplus/internal/wire"
)

// Wire format. Every message travels in one internal/wire frame
// (u32 payload length | u32 CRC-32 | payload), the same frame the
// internal/persist WAL and snapshot files use; internal/wire is its one
// definition.
//
// Client→server payloads are {msg type byte, request id uvarint, body};
// server→client payloads are {msgReply, request id uvarint, echoed msg
// type byte, queue-len uvarint, pending-repairs uvarint, body}. The
// piggybacked queue/repair sample keeps the client's Signals fresh with
// zero extra round trips — exactly as fresh as the traffic that makes
// the pressure ladder care.
//
// Bodies are internal/wire values read through its bounds-checked
// cursor, so a malformed or truncated frame produces a decode error —
// never a panic, never a silent truncation. Query graphs ride as
// length-prefixed internal/graph text (graph.Marshal); update
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
// frame after the shard index; the server closes a connection whose
// HELLO carries any other. A QUERY request ends in the sampled trace id
// when it has one; QUERY replies end in the queue nanos, APPEND_WAL
// replies in the append nanos. Shards build no spans: the router
// synthesizes every trace from the reply stats, so no span data crosses
// the wire.
const protocolVersion = 3

// MaxFramePayload bounds a frame payload. An oversized outbound frame
// is rejected client-side with StatusBadRequest before anything is
// sent; an oversized inbound length prefix poisons the connection.
const MaxFramePayload = wire.MaxFramePayload

// --- query request ---

// AppendQueryRequest encodes a QueryRequest body. deadline is the
// remaining time budget (0 = none), shipped as a relative duration so
// the two processes need no clock agreement.
func AppendQueryRequest(dst []byte, req *shardhost.QueryRequest, deadline time.Duration) []byte {
	dst = append(dst, byte(req.Kind))
	dst = wire.AppendDuration(dst, deadline)
	dst = wire.AppendUvarint(dst, uint64(req.Opts.Limit))
	dst = wire.AppendBool(dst, req.Opts.BypassCache)
	dst = wire.AppendUvarint(dst, uint64(req.Opts.MaxVerifyParallelism))
	dst = wire.AppendBytes(dst, graph.Marshal(req.Query))
	if req.Opts.TraceID != 0 {
		// Trailing and optional, so an unsampled request's bytes do not
		// depend on tracing at all.
		dst = wire.AppendUvarint(dst, req.Opts.TraceID)
	}
	return dst
}

// DecodeQueryRequest is AppendQueryRequest's inverse. Every failure is
// a StatusBadRequest.
func DecodeQueryRequest(data []byte) (*shardhost.QueryRequest, time.Duration, error) {
	d := wire.NewDec("transport", data)
	req := &shardhost.QueryRequest{Kind: cache.Kind(d.Byte())}
	deadline := d.Duration()
	req.Opts.Limit = d.Int()
	req.Opts.BypassCache = d.Bool()
	req.Opts.MaxVerifyParallelism = d.Int()
	gb := d.Bytes()
	if d.Len() > 0 {
		req.Opts.TraceID = d.Uvarint()
	}
	if err := d.Finish("query request"); err != nil {
		return nil, 0, badRequestf("%v", err)
	}
	if req.Kind != cache.KindSub && req.Kind != cache.KindSuper {
		return nil, 0, badRequestf("transport: unknown query kind %d", req.Kind)
	}
	g, err := graph.Unmarshal(gb)
	if err != nil {
		return nil, 0, badRequestf("%v", err)
	}
	req.Query = g
	return req, deadline, nil
}

// --- op request ---

// AppendOpRequest encodes an OpRequest body via the changeplan binary
// codec (which carries the graph for ADD ops).
func AppendOpRequest(dst []byte, req *shardhost.OpRequest) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(req.GlobalID))
	return req.Op.AppendBinary(dst)
}

// DecodeOpRequest is AppendOpRequest's inverse. Every failure is a
// StatusBadRequest.
func DecodeOpRequest(data []byte) (*shardhost.OpRequest, error) {
	d := wire.NewDec("transport", data)
	gid := d.Uvarint()
	if gid > math.MaxInt32 {
		d.Fail("global id %d out of range", gid)
	}
	req := &shardhost.OpRequest{GlobalID: int(gid), Op: changeplan.DecodeOp(&d)}
	if err := d.Finish("op request"); err != nil {
		return nil, badRequestf("%v", err)
	}
	return req, nil
}

// --- query reply ---

// AppendQueryReply encodes a QueryReply body: host nanos, the taxonomy-
// classified error, and on success the ascending answer ids
// (delta-coded) plus every QueryStats field, so the stats the router
// aggregates and traces are bit-identical across transports. The body
// ends with the queue wait, on error replies too, so a cancelled
// query's trace keeps its queue span.
func AppendQueryReply(dst []byte, reply *shardhost.QueryReply) []byte {
	dst = wire.AppendInt(dst, reply.HostNanos)
	dst = appendWireError(dst, reply.Err)
	if reply.Err == nil {
		dst = wire.AppendUvarint(dst, uint64(len(reply.IDs)))
		prev := 0
		for _, id := range reply.IDs {
			dst = wire.AppendUvarint(dst, uint64(id-prev))
			prev = id
		}
		st := &reply.Stats
		dst = append(dst, byte(st.Kind))
		dst = wire.AppendUvarint(dst, uint64(st.CandidatesBefore))
		dst = wire.AppendUvarint(dst, uint64(st.SubIsoTests))
		dst = wire.AppendUvarint(dst, uint64(st.SearchStates))
		dst = wire.AppendUvarint(dst, uint64(st.TestsSaved))
		dst = wire.AppendUvarint(dst, uint64(st.ContainingHits))
		dst = wire.AppendUvarint(dst, uint64(st.ContainedHits))
		dst = wire.AppendUvarint(dst, uint64(st.IsoHits))
		dst = wire.AppendBool(dst, st.ExactHit)
		dst = wire.AppendBool(dst, st.EmptyShortcut)
		dst = wire.AppendDuration(dst, st.QueryTime)
		dst = wire.AppendDuration(dst, st.VerifyTime)
		dst = wire.AppendDuration(dst, st.VerifyCPUTime)
		dst = wire.AppendUvarint(dst, uint64(st.VerifyWorkers))
		dst = wire.AppendDuration(dst, st.HitTime)
		dst = wire.AppendUvarint(dst, uint64(st.HitScanned))
		dst = wire.AppendUvarint(dst, uint64(st.HitCandidates))
		dst = wire.AppendDuration(dst, st.Overhead)
		dst = wire.AppendDuration(dst, st.ConsistencyTime)
		dst = wire.AppendBool(dst, st.CacheBypassed)
		dst = wire.AppendDuration(dst, st.PlanTime)
		dst = wire.AppendString(dst, st.PlanAlgorithm)
		dst = wire.AppendBool(dst, st.PlanCached)
		dst = wire.AppendBool(dst, st.Truncated)
	}
	return wire.AppendInt(dst, reply.QueueNanos)
}

// DecodeQueryReply is AppendQueryReply's inverse.
func DecodeQueryReply(data []byte, reply *shardhost.QueryReply) error {
	d := wire.NewDec("transport", data)
	reply.HostNanos = int64(d.Duration())
	reply.Err = decodeWireError(&d)
	var ids []int
	if reply.Err == nil {
		n := d.Count(1)
		ids = make([]int, 0, n)
		prev := uint64(0)
		for i := 0; i < n && d.Err() == nil; i++ {
			delta := d.Uvarint()
			if i > 0 && delta == 0 {
				// A legitimate answer set is strictly ascending; a zero
				// delta after the first id means a duplicated answer.
				d.Fail("answer ids not strictly ascending")
			}
			prev += delta
			if prev > math.MaxInt32 {
				d.Fail("answer id %d out of range", prev)
			}
			ids = append(ids, int(prev))
		}
		st := &reply.Stats
		st.Kind = cache.Kind(d.Byte())
		st.CandidatesBefore = d.Int()
		st.SubIsoTests = d.Int()
		st.SearchStates = d.Int()
		st.TestsSaved = d.Int()
		st.ContainingHits = d.Int()
		st.ContainedHits = d.Int()
		st.IsoHits = d.Int()
		st.ExactHit = d.Bool()
		st.EmptyShortcut = d.Bool()
		st.QueryTime = d.Duration()
		st.VerifyTime = d.Duration()
		st.VerifyCPUTime = d.Duration()
		st.VerifyWorkers = d.Int()
		st.HitTime = d.Duration()
		st.HitScanned = d.Int()
		st.HitCandidates = d.Int()
		st.Overhead = d.Duration()
		st.ConsistencyTime = d.Duration()
		st.CacheBypassed = d.Bool()
		st.PlanTime = d.Duration()
		st.PlanAlgorithm = d.Str()
		st.PlanCached = d.Bool()
		st.Truncated = d.Bool()
	}
	reply.QueueNanos = int64(d.Duration())
	if err := d.Finish("query reply"); err != nil {
		return err
	}
	reply.IDs = ids
	return nil
}
