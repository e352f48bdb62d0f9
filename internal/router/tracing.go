package router

import (
	"errors"
	"strconv"
	"time"

	"gcplus/internal/core"
	"gcplus/internal/shardhost"
	"gcplus/internal/trace"
)

// Router-side distributed tracing. The router is the only producer of
// a trace: it opens the root span, times its own stages (admission,
// fan-out, merge for queries; admission, apply, WAL appends for
// updates), and synthesizes every shard's subtree from the reply's
// QueryStats, its QueueNanos and the round trip it measured itself —
// over every transport, so the local and loopback trees have the same
// shape by construction. Head sampling (Options.TraceSampleRate)
// decides which healthy requests are retained; tail retention keeps
// every anomalous trace — slow, error, shed, deadline-exceeded,
// degraded — even unsampled ones. POST /query?trace=1 force-samples
// its request.

// DefaultTraceSampleRate is the head-sampling rate when
// Options.TraceSampleRate is zero: one query in a hundred.
const DefaultTraceSampleRate = 0.01

// requestTrace accumulates one request's router-side trace state. One
// exists for every request, sampled or not, because tail retention must
// be able to promote any request to a retained trace after the fact;
// only the store Add pays allocation beyond the struct itself.
type requestTrace struct {
	id      trace.ID
	sampled bool
	op      string // root span name: "query" or "update"
	kind    string // "sub"/"super" for queries, "" for updates
	start   time.Time
	rootID  trace.SpanID
	fanID   trace.SpanID
	// admitEnd is zero until admission succeeded; fanEnd zero until the
	// fan-out wait completed. Their zeroness encodes how far the request
	// got, which is what decides the span tree of an early exit.
	admitEnd time.Time
	fanEnd   time.Time
	rung     int
	rungName string
}

// beginTrace opens a request trace. force samples it without consulting
// (or using up a slot of) the head sampler.
func (s *Server) beginTrace(op, kind string, force bool) *requestTrace {
	return &requestTrace{
		id:      trace.NewTraceID(),
		sampled: force || s.sampler.Sample(),
		op:      op,
		kind:    kind,
		start:   s.now(),
		rootID:  trace.NewSpanID(),
		fanID:   trace.NewSpanID(),
	}
}

// exemplarID is the trace id to cite on histogram exemplars: only
// sampled traces, so every exemplar points at a trace that is retained.
// It crosses the transport as QueryOptions.TraceID.
func (t *requestTrace) exemplarID() uint64 {
	if !t.sampled {
		return 0
	}
	return uint64(t.id)
}

// noteAdmitted marks the end of the admission stage and records the
// degradation rung the request was admitted under.
func (t *requestTrace) noteAdmitted(at time.Time, rung int, rungName string) {
	t.admitEnd = at
	t.rung = rung
	t.rungName = rungName
}

// noteFanoutDone marks the completion of the shard fan-out wait.
func (t *requestTrace) noteFanoutDone(at time.Time) { t.fanEnd = at }

// nanosBetween is b-a clamped at zero: clock-skew fault injection must
// never produce a negative span duration.
func nanosBetween(a, b time.Time) int64 {
	if d := b.Sub(a); d > 0 {
		return int64(d)
	}
	return 0
}

// capErr truncates an error message to a span-attribute-friendly size.
func capErr(err error) string {
	msg := err.Error()
	if len(msg) > 256 {
		msg = msg[:256]
	}
	return msg
}

// assemble builds the router span tree — root plus the stages the
// request reached — appends one shard subtree per reply (plus any extra
// spans the caller built, e.g. WAL appends), and retains the trace when
// it is sampled or anomalous. The whole trace lands in one allocation:
// the slice is sized for the router stages plus every shard subtree up
// front. Returns the retained trace, nil when none was kept. Only call
// with finished replies; rtts holds each reply's measured round trip.
func (t *requestTrace) assemble(s *Server, end time.Time, anomaly, errMsg string, rootAttrs []trace.Attr, replies []shardhost.QueryReply, rtts []int64, dispatch time.Time, extra []trace.Span) *trace.Trace {
	if !t.sampled && anomaly == trace.AnomalyNone {
		return nil
	}
	startN := t.start.UnixNano()
	root := trace.Span{
		TraceID: t.id, ID: t.rootID, Name: t.op,
		StartNanos: startN, DurNanos: nanosBetween(t.start, end),
	}
	if t.kind != "" {
		root.SetAttr("kind", t.kind)
	}
	for _, a := range rootAttrs {
		root.SetAttr(a.Key, a.Value)
	}
	root.SetAttr("transport", s.transportKind)
	if t.rung > 0 {
		root.SetAttr("degraded", t.rungName)
	}
	if anomaly != trace.AnomalyNone {
		root.SetAttr("anomaly", anomaly)
	}
	if errMsg != "" {
		root.SetAttr("error", errMsg)
	}
	if !t.sampled {
		root.SetAttr("synthesized", "true") // kept by tail retention alone
	}

	spans := make([]trace.Span, 0, 4+len(extra)+maxShardSpans*len(replies))
	spans = append(spans, root)
	adm := trace.Span{
		TraceID: t.id, ID: trace.NewSpanID(), Parent: t.rootID,
		Name: "admission", StartNanos: startN,
	}
	if t.admitEnd.IsZero() {
		// Shed or expired inside admission: the whole request was the
		// admission stage.
		adm.DurNanos = root.DurNanos
		spans = append(spans, adm)
	} else {
		adm.DurNanos = nanosBetween(t.start, t.admitEnd)
		spans = append(spans, adm)
		fanEnd := t.fanEnd
		if fanEnd.IsZero() {
			fanEnd = end // fan-out abandoned at the deadline
		}
		fan := trace.Span{
			TraceID: t.id, ID: t.fanID, Parent: t.rootID,
			Name: "fanout", StartNanos: t.admitEnd.UnixNano(),
			DurNanos: nanosBetween(t.admitEnd, fanEnd),
		}
		fan.SetAttr("shards", strconv.Itoa(len(s.clients)))
		spans = append(spans, fan)
		if !t.fanEnd.IsZero() && t.op == "query" {
			spans = append(spans, trace.Span{
				TraceID: t.id, ID: trace.NewSpanID(), Parent: t.rootID,
				Name: "merge", StartNanos: t.fanEnd.UnixNano(),
				DurNanos: nanosBetween(t.fanEnd, end),
			})
		}
	}
	for i := range replies {
		spans = appendShardSpans(spans, t.id, t.fanID, i, dispatch.UnixNano(), &replies[i], rtts[i], s.cacheOn)
	}
	spans = append(spans, extra...)
	tr := &trace.Trace{
		ID: t.id, StartNanos: startN, WallNanos: root.DurNanos,
		Anomaly: anomaly, Spans: spans,
	}
	s.traces.Add(tr)
	return tr
}

// maxShardSpans is the size of the largest shard subtree: the shard
// root plus five stage spans.
const maxShardSpans = 6

// appendShardSpans synthesizes one shard's query subtree into dst: a
// "shard" root parented under the fan-out span, with stage children
// laid out back to back from startNanos:
//
//	shard                (query_us, overhead_us, transport_us, hit_class)
//	├── queue            (always; the measured owner-queue wait)
//	├── plan             (always on success: algorithm, cached)
//	├── consistency      (iff the cache path ran)
//	├── hit              (iff the cache path ran: class, scanned, candidates)
//	└── verify           (always on success: subiso_tests, states, cpu_us)
//
// Which spans and attributes exist depends only on non-timing reply
// fields (cache bypass, error), never on measured durations, so every
// transport yields the same shape. A failed query keeps its partial
// trace: the root records the error and only the queue child is emitted
// (stats are zero-valued on error, so stage spans would be fiction).
// transport_us is the round trip minus the host-measured service time.
// Attrs are carved from one per-call arena, so SetAttr allocates once
// per subtree rather than once per span.
func appendShardSpans(dst []trace.Span, id trace.ID, parent trace.SpanID, shard int, startNanos int64, r *shardhost.QueryReply, rtt int64, cacheEnabled bool) []trace.Span {
	st := &r.Stats
	// The root lives at index ri and is finalized last, once the stage
	// cursor has advanced past every child.
	ri := len(dst)
	spans := append(dst, trace.Span{})
	arena := make([]trace.Attr, 0, 6+2+3+6) // shard + plan + hit + verify windows
	grab := func(n int) []trace.Attr {
		a := arena[len(arena) : len(arena) : len(arena)+n]
		arena = arena[:len(arena)+n]
		return a
	}
	root := &spans[ri]
	*root = trace.Span{
		TraceID: id, ID: trace.NewSpanID(), Parent: parent,
		Name: "shard", StartNanos: startNanos, Attrs: grab(6),
	}
	root.SetAttr("shard", strconv.Itoa(shard))
	root.SetAttr("transport_us", micros(time.Duration(rtt-r.HostNanos)))

	cursor := startNanos
	child := func(name string, d time.Duration, attrs int) *trace.Span {
		spans = append(spans, trace.Span{
			TraceID: id, ID: trace.NewSpanID(), Parent: spans[ri].ID,
			Name: name, StartNanos: cursor, DurNanos: int64(d), Attrs: grab(attrs),
		})
		cursor += int64(d)
		root = &spans[ri] // append may have moved the backing array
		return &spans[len(spans)-1]
	}

	child("queue", time.Duration(r.QueueNanos), 0)
	if r.Err != nil {
		root.SetAttr("error", capErr(r.Err))
		root.DurNanos = cursor - startNanos
		return spans
	}

	p := child("plan", st.PlanTime, 2)
	p.SetAttr("algorithm", st.PlanAlgorithm)
	p.SetAttr("cached", strconv.FormatBool(st.PlanCached))
	if cacheEnabled && !st.CacheBypassed {
		child("consistency", st.ConsistencyTime, 0)
		hs := child("hit", st.HitTime, 3)
		hs.SetAttr("class", hitClass(st))
		hs.SetAttr("scanned", strconv.Itoa(st.HitScanned))
		hs.SetAttr("candidates", strconv.Itoa(st.HitCandidates))
	}
	v := child("verify", st.VerifyTime, 6)
	v.SetAttr("subiso_tests", strconv.Itoa(st.SubIsoTests))
	v.SetAttr("tests_saved", strconv.Itoa(st.TestsSaved))
	v.SetAttr("states", strconv.Itoa(st.SearchStates))
	v.SetAttr("cpu_us", micros(st.VerifyCPUTime))
	if st.VerifyWorkers > 0 {
		v.SetAttr("workers", strconv.Itoa(st.VerifyWorkers))
	}
	if st.Truncated {
		v.SetAttr("truncated", "true")
	}

	root.SetAttr("query_us", micros(st.QueryTime))
	root.SetAttr("overhead_us", micros(st.Overhead))
	root.SetAttr("hit_class", hitClass(st))
	if st.CacheBypassed {
		root.SetAttr("bypassed", "true")
	}
	root.DurNanos = cursor - startNanos
	return spans
}

// micros renders a duration as whole microseconds, clamped at zero.
func micros(d time.Duration) string {
	return strconv.FormatInt(max(d, 0).Microseconds(), 10)
}

// hitClass collapses the stats' hit flags into the one-word cache
// verdict the trace annotates: how much of the answer the GC+ cache
// supplied before Method M verification ran.
func hitClass(st *core.QueryStats) string {
	switch {
	case st.ExactHit:
		return "exact"
	case st.EmptyShortcut:
		return "empty"
	case st.IsoHits > 0:
		return "iso"
	case st.ContainingHits > 0 || st.ContainedHits > 0:
		return "partial"
	default:
		return "miss"
	}
}

// finishShed retains the trace of a request fast-failed by admission
// control: root + admission only, always kept (tail retention).
func (t *requestTrace) finishShed(s *Server) {
	t.assemble(s, s.now(), trace.AnomalyShed, "", nil, nil, nil, time.Time{}, nil)
}

// finishEarly retains the trace of a request that failed before any
// shard reply could be read (deadline during admission or during the
// fan-out wait): the shard subtrees are unknown, the router stages and
// the anomaly class are not.
func (t *requestTrace) finishEarly(s *Server, err error) {
	t.assemble(s, s.now(), anomalyOf(err), capErr(err), nil, nil, nil, time.Time{}, nil)
}

// finishReplyErr retains the trace of a query whose shards all
// finished but at least one reported an error. Partial shard spans —
// root + queue — survive for every failed shard.
func (t *requestTrace) finishReplyErr(s *Server, err error, replies []shardhost.QueryReply, rtts []int64, dispatch time.Time) {
	t.assemble(s, s.now(), anomalyOf(err), capErr(err), nil, replies, rtts, dispatch, nil)
}

// finishQuery classifies and retains a successful query's trace,
// attaching it to the result when it was kept.
func (t *requestTrace) finishQuery(s *Server, out *QueryResult, replies []shardhost.QueryReply, rtts []int64, dispatch, end time.Time) {
	anomaly := trace.AnomalyNone
	switch {
	case s.opts.SlowLogThreshold > 0 && out.Wall >= s.opts.SlowLogThreshold:
		anomaly = trace.AnomalySlow
	case t.rung > 0:
		anomaly = trace.AnomalyDegraded
	}
	if tr := t.assemble(s, end, anomaly, "", nil, replies, rtts, dispatch, nil); tr != nil {
		out.TraceID, out.trace = tr.ID, tr
	}
}

// finishUpdate retains a successful (or durability-degraded) update
// batch's trace: root + admission + apply + one wal_append child per
// shard, with the host-measured append latency off the reply frames.
func (t *requestTrace) finishUpdate(s *Server, end time.Time, epoch uint64, applied int, walReplies []*shardhost.WALAppendReply, walErr error) {
	anomaly := trace.AnomalyNone
	errMsg := ""
	if walErr != nil {
		anomaly = trace.AnomalyError
		errMsg = capErr(walErr)
	}
	if !t.sampled && anomaly == trace.AnomalyNone {
		return
	}
	var spans []trace.Span
	for i, r := range walReplies {
		if r == nil {
			continue
		}
		sp := trace.Span{
			TraceID: t.id, ID: trace.NewSpanID(), Parent: t.fanID,
			Name: "wal_append", StartNanos: t.admitEnd.UnixNano(),
			DurNanos: r.Nanos,
		}
		sp.SetAttr("shard", strconv.Itoa(i))
		if r.Err != nil {
			sp.SetAttr("error", capErr(r.Err))
		}
		spans = append(spans, sp)
	}
	t.fanEnd = end
	t.assemble(s, end, anomaly, errMsg, []trace.Attr{
		{Key: "epoch", Value: strconv.FormatUint(epoch, 10)},
		{Key: "applied", Value: strconv.Itoa(applied)},
	}, nil, nil, time.Time{}, spans)
}

// anomalyOf maps a request error to its trace anomaly class.
func anomalyOf(err error) string {
	var ce *core.CancelError
	if errors.As(err, &ce) {
		return trace.AnomalyDeadline
	}
	return trace.AnomalyError
}
