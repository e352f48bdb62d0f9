package shardhost

import (
	"strconv"
	"time"

	"gcplus/internal/core"
	"gcplus/internal/trace"
)

// Shard-side span synthesis. A shard does not instrument its stages
// with live span objects; the runtime already measures every stage into
// QueryStats, so the span subtree is derived from those measurements
// after the fact — one allocation-light pass that runs OFF the owner
// goroutine (the wire server builds it on its writer goroutine, the
// router builds it during trace assembly), so the serial shard owner
// never pays for span construction. Crucially, which spans exist
// depends only on non-timing stats fields (cache bypass, error), never
// on measured durations, so the local and loopback transports produce
// identically shaped trees by construction: both run this exact function
// over the same stats.

// BuildShardSpans synthesizes the span subtree for one shard's query:
// a "shard" root parented under tc.Parent (the router's fan-out span)
// with stage children laid out back to back from startNanos:
//
//	shard
//	├── queue            (always; measured owner-queue wait)
//	├── plan             (always on success: algorithm, cached)
//	├── consistency      (iff the cache path ran)
//	├── hit              (iff the cache path ran)
//	└── verify           (always on success)
//
// A failed query keeps its partial trace: the root records the error
// and only the queue child is emitted (stats are zero-valued on error,
// so stage spans would be fiction). Returns nil for an invalid context.
func BuildShardSpans(tc trace.Context, shard int, startNanos int64, queue time.Duration, st *core.QueryStats, qerr error, cacheEnabled bool) []trace.Span {
	if !tc.Valid() {
		return nil
	}
	return AppendShardSpans(make([]trace.Span, 0, 6), tc, shard, startNanos, queue, st, qerr, cacheEnabled)
}

// AppendShardSpans is BuildShardSpans appending into dst, so a caller
// assembling a whole trace (the router) lays every shard subtree into
// one backing array with no intermediate copies. Attrs are carved from
// one per-call arena in fixed 4-attr windows, so SetAttr never
// allocates per span (a span outgrowing its window just falls back to
// append's own reallocation). Returns dst unchanged for an invalid
// context.
func AppendShardSpans(dst []trace.Span, tc trace.Context, shard int, startNanos int64, queue time.Duration, st *core.QueryStats, qerr error, cacheEnabled bool) []trace.Span {
	if !tc.Valid() {
		return dst
	}
	// The root lives at index ri and is finalized last, once the stage
	// cursor has advanced past every child (a query subtree tops out at
	// root + 5 stage spans).
	ri := len(dst)
	spans := append(dst, trace.Span{})
	arena := make([]trace.Attr, 6*4)
	narena := 0
	grab := func() []trace.Attr {
		a := arena[narena : narena : narena+4]
		narena += 4
		return a
	}
	root := &spans[ri]
	*root = trace.Span{
		TraceID:    tc.TraceID,
		ID:         trace.NewSpanID(),
		Parent:     tc.Parent,
		Name:       "shard",
		StartNanos: startNanos,
		Attrs:      grab(),
	}
	root.SetAttr("shard", strconv.Itoa(shard))

	cursor := startNanos
	child := func(name string, d time.Duration) *trace.Span {
		spans = append(spans, trace.Span{
			TraceID:    tc.TraceID,
			ID:         trace.NewSpanID(),
			Parent:     spans[ri].ID,
			Name:       name,
			StartNanos: cursor,
			DurNanos:   int64(d),
			Attrs:      grab(),
		})
		cursor += int64(d)
		root = &spans[ri] // append may have moved the backing array
		return &spans[len(spans)-1]
	}

	child("queue", queue)
	if qerr != nil {
		msg := qerr.Error()
		if len(msg) > 256 {
			msg = msg[:256]
		}
		root.SetAttr("error", msg)
		root.DurNanos = cursor - startNanos
		return spans
	}

	p := child("plan", st.PlanTime)
	p.SetAttr("algorithm", st.PlanAlgorithm)
	p.SetAttr("cached", strconv.FormatBool(st.PlanCached))
	if cacheEnabled && !st.CacheBypassed {
		child("consistency", st.ConsistencyTime)
		hs := child("hit", st.HitTime)
		hs.SetAttr("class", hitClass(st))
		hs.SetAttr("scanned", strconv.Itoa(st.HitScanned))
		hs.SetAttr("candidates", strconv.Itoa(st.HitCandidates))
	}
	v := child("verify", st.VerifyTime)
	v.SetAttr("subiso_tests", strconv.Itoa(st.SubIsoTests))
	v.SetAttr("tests_saved", strconv.Itoa(st.TestsSaved))
	if st.VerifyWorkers > 0 {
		v.SetAttr("workers", strconv.Itoa(st.VerifyWorkers))
	}
	if st.Truncated {
		v.SetAttr("truncated", "true")
	}

	root.SetAttr("hit_class", hitClass(st))
	if st.CacheBypassed {
		root.SetAttr("bypassed", "true")
	}
	root.DurNanos = cursor - startNanos
	return spans
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
