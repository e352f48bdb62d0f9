package router

import (
	"sync"
	"time"

	"gcplus/internal/core"
	"gcplus/internal/graph"
)

// ShardTrace is one shard's stage breakdown of a query — the per-shard
// core.QueryStats in wire form (microseconds), the unit of both the
// inline ?trace=1 response and the slow-query log.
type ShardTrace struct {
	Shard int `json:"shard"`
	// Stage durations in microseconds. Query is the shard's end-to-end
	// processing time minus cache maintenance; Overhead the maintenance;
	// Consistency the log-analysis/validation share of Overhead.
	QueryMicros       int64 `json:"query_us"`
	HitMicros         int64 `json:"hit_us"`
	VerifyMicros      int64 `json:"verify_us"`
	VerifyCPUMicros   int64 `json:"verify_cpu_us"`
	OverheadMicros    int64 `json:"overhead_us"`
	ConsistencyMicros int64 `json:"consistency_us"`
	PlanMicros        int64 `json:"plan_us"`
	// TransportMicros is the transport overhead of this shard's dispatch:
	// the router-observed round trip minus the host-measured service
	// time. Near zero for the local transport; framing + TCP for
	// loopback.
	TransportMicros int64 `json:"transport_us"`
	// QueueMicros is the time this shard's job spent enqueued behind the
	// owner goroutine before it started — head-of-line wait, the part of
	// the round trip neither the stage times nor transport overhead
	// explain.
	QueueMicros int64 `json:"queue_us"`
	// Work counters explaining where the time went.
	SubIsoTests   int  `json:"subiso_tests"`
	TestsSaved    int  `json:"tests_saved"`
	HitCandidates int  `json:"hit_candidates"`
	ExactHit      bool `json:"exact_hit,omitempty"`
	EmptyShortcut bool `json:"empty_shortcut,omitempty"`
	// Plan this shard executed under: the Method M algorithm (pinned or
	// the planner's measured choice), whether the compiled plan came from
	// the plan cache, and whether streaming stopped verification early.
	PlanAlgo   string `json:"plan_algo,omitempty"`
	PlanCached bool   `json:"plan_cached,omitempty"`
	Truncated  bool   `json:"truncated,omitempty"`
}

// QueryTrace is a query's full execution trace: the front-end wall time
// plus one ShardTrace per shard. The slowest shard bounds the wall time;
// the gap between them is fan-out/merge and queue wait. TraceID links
// the distributed trace retained for this query (fetch the span tree at
// GET /debug/traces/{id}); empty when the query was neither sampled nor
// anomalous.
type QueryTrace struct {
	TraceID    string       `json:"trace_id,omitempty"`
	WallMicros int64        `json:"wall_us"`
	PerShard   []ShardTrace `json:"per_shard"`
}

func shardTrace(i int, st core.QueryStats, transport, queue time.Duration) ShardTrace {
	return ShardTrace{
		Shard:             i,
		TransportMicros:   transport.Microseconds(),
		QueueMicros:       queue.Microseconds(),
		QueryMicros:       st.QueryTime.Microseconds(),
		HitMicros:         st.HitTime.Microseconds(),
		VerifyMicros:      st.VerifyTime.Microseconds(),
		VerifyCPUMicros:   st.VerifyCPUTime.Microseconds(),
		OverheadMicros:    st.Overhead.Microseconds(),
		ConsistencyMicros: st.ConsistencyTime.Microseconds(),
		PlanMicros:        st.PlanTime.Microseconds(),
		SubIsoTests:       st.SubIsoTests,
		TestsSaved:        st.TestsSaved,
		HitCandidates:     st.HitCandidates,
		ExactHit:          st.ExactHit,
		EmptyShortcut:     st.EmptyShortcut,
		PlanAlgo:          st.PlanAlgorithm,
		PlanCached:        st.PlanCached,
		Truncated:         st.Truncated,
	}
}

// Trace builds the execution trace of a finished query result.
func (res *QueryResult) Trace() *QueryTrace {
	t := &QueryTrace{
		WallMicros: res.Wall.Microseconds(),
		PerShard:   make([]ShardTrace, len(res.PerShard)),
	}
	if res.TraceID != 0 {
		t.TraceID = res.TraceID.String()
	}
	for i, st := range res.PerShard {
		var tr, qw time.Duration
		if i < len(res.Transport) {
			tr = res.Transport[i]
		}
		if i < len(res.Queue) {
			qw = res.Queue[i]
		}
		t.PerShard[i] = shardTrace(i, st, tr, qw)
	}
	return t
}

// DefaultSlowLogSize bounds the slow-query ring when
// Options.SlowLogSize is unset.
const DefaultSlowLogSize = 128

// slowQueryTextLimit truncates captured query texts: queries are small
// by nature, but the log must stay bounded even against a pathological
// near-1MiB upload.
const slowQueryTextLimit = 4096

// SlowQuery is one captured slow query.
type SlowQuery struct {
	// Time is the wall-clock completion time.
	Time time.Time `json:"time"`
	// Kind is "sub" or "super"; Epoch the dataset version answered at.
	Kind  string `json:"kind"`
	Epoch uint64 `json:"epoch"`
	// Query is the query graph in the text codec (truncated at 4KiB).
	Query string `json:"query"`
	// Results is the answer-set size.
	Results     int   `json:"results"`
	SubIsoTests int   `json:"subiso_tests"`
	WallMicros  int64 `json:"wall_us"`
	// TraceID links the distributed trace retained for this query —
	// slow queries are anomalous, so tail retention keeps their traces
	// whenever tracing is enabled. Fetch the full span tree at
	// GET /debug/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the inline per-shard stage breakdown, captured only when
	// no retained trace exists to link (tracing disabled): the retained
	// trace already carries every stage duration as spans, so inlining
	// it too would duplicate the payload in the ring.
	Trace *QueryTrace `json:"trace,omitempty"`
}

// slowLog is a bounded ring of the slowest-path evidence: queries whose
// wall time crossed Options.SlowLogThreshold, newest overwriting oldest.
type slowLog struct {
	mu    sync.Mutex
	buf   []SlowQuery
	next  int   // ring write position
	total int64 // lifetime captures (≥ len of retained entries)
}

func newSlowLog(size int) *slowLog {
	return &slowLog{buf: make([]SlowQuery, 0, size)}
}

// record captures one slow query. The query text is rendered here, on
// the already-slow path — the fast path never pays for it.
func (l *slowLog) record(q *graph.Graph, res *QueryResult) {
	text := string(graph.AppendText(nil, q))
	if len(text) > slowQueryTextLimit {
		text = text[:slowQueryTextLimit] + "…(truncated)"
	}
	entry := SlowQuery{
		Time:        time.Now(),
		Kind:        res.Kind,
		Epoch:       res.Epoch,
		Query:       text,
		Results:     len(res.IDs),
		SubIsoTests: res.SubIsoTests,
		WallMicros:  res.Wall.Microseconds(),
	}
	if res.TraceID != 0 {
		entry.TraceID = res.TraceID.String()
	} else {
		entry.Trace = res.Trace()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, entry)
		return
	}
	if cap(l.buf) == 0 {
		return
	}
	l.buf[l.next] = entry
	l.next = (l.next + 1) % cap(l.buf)
}

// snapshot returns the retained entries, newest first.
func (l *slowLog) snapshot() []SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, 0, len(l.buf))
	// The ring's chronological order is buf[next:] then buf[:next] when
	// full, plain append order while filling; walk it backwards.
	for i := len(l.buf) - 1; i >= 0; i-- {
		out = append(out, l.buf[(l.next+i)%len(l.buf)])
	}
	return out
}

func (l *slowLog) captured() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// SlowQueries returns the retained slow-query log entries, newest
// first. Empty when Options.SlowLogThreshold is unset.
func (s *Server) SlowQueries() []SlowQuery { return s.slow.snapshot() }
