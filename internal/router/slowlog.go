package router

import (
	"sync"
	"time"

	"gcplus/internal/graph"
)

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
	// TraceID links the distributed trace retained for this query: a
	// slow query is anomalous, so tail retention always keeps its trace.
	// Fetch the span tree, with every shard's stage times, at
	// GET /debug/traces/{id}.
	TraceID string `json:"trace_id"`
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
		TraceID:     res.TraceID.String(),
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
