package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/shardhost"
	"gcplus/internal/trace"
)

// traceShape reduces a trace to its transport-independent structure:
// one line per span — parent name, own name, sorted attribute keys —
// sorted. Durations, ids and attribute values are deliberately absent;
// the differential contract is about which spans exist and how they
// nest, which may depend only on what the query did, never on how fast
// a transport carried it.
func traceShape(t *trace.Trace) string {
	names := make(map[trace.SpanID]string, len(t.Spans))
	for _, sp := range t.Spans {
		names[sp.ID] = sp.Name
	}
	lines := make([]string, 0, len(t.Spans))
	for _, sp := range t.Spans {
		keys := make([]string, 0, len(sp.Attrs))
		for _, a := range sp.Attrs {
			if a.Key == "transport" { // differs by construction
				continue
			}
			keys = append(keys, a.Key)
		}
		sort.Strings(keys)
		parent := names[sp.Parent] // "" for the root
		lines = append(lines, fmt.Sprintf("%s>%s(%s)", parent, sp.Name, strings.Join(keys, ",")))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestTraceDifferentialTransports pins the acceptance contract of the
// tracing tentpole: the local and loopback transports must produce
// structurally identical traces for the same workload — same span
// names, same nesting, same attribute keys — because the router
// synthesizes every shard subtree from the same QueryStats regardless
// of the seam that carried them. The workload ends with a query whose
// deadline expires while every shard is blocked (its partial trace
// keeps the router stages) and a ?trace=1 request.
func TestTraceDifferentialTransports(t *testing.T) {
	initial := genGraphs(t, 40, 23)
	queries := testQueries(initial)
	if len(queries) < 2 {
		t.Fatal("not enough test queries")
	}
	opts := Options{
		Shards:          2,
		Cache:           &cache.Config{Capacity: 32, WindowSize: 4},
		TraceSampleRate: 1,
	}
	shapes := make(map[string][]string)
	for _, tr := range []string{TransportLocal, TransportLoopback} {
		o := opts
		o.Transport = tr
		srv, err := New(initial, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if _, err := subQ(srv, q); err != nil {
				t.Fatal(err)
			}
			if _, err := superQ(srv, q); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv.Update([]changeplan.Op{changeplan.AddOp(initial[0].Clone())}); err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		for _, h := range srv.hosts {
			h.Enqueue(func() { <-gate })
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err = srv.Query(ctx, cache.KindSub, queries[0], 0)
		cancel()
		close(gate)
		var ce *core.CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: query past its deadline returned %v, want a CancelError", tr, err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?kind=sub&trace=1",
			strings.NewReader(codecOf(t, queries[1]))))
		qr := decodeJSON[queryResponse](t, rec.Body)
		snap := srv.traces.Snapshot()
		if want := 2*len(queries) + 3; len(snap) != want {
			t.Fatalf("%s: retained %d traces, want %d", tr, len(snap), want)
		}
		if qr.Trace == nil || qr.Trace.TraceID != snap[0].ID.String() || len(qr.Trace.Spans) != len(snap[0].Spans) {
			t.Fatalf("%s: ?trace=1 returned %+v, not the retained trace %s", tr, qr.Trace, snap[0].ID)
		}
		if snap[1].Anomaly != trace.AnomalyDeadline || snap[1].Spans[0].Attr("error") == "" {
			t.Fatalf("%s: expired query's trace is %q with root %+v", tr, snap[1].Anomaly, snap[1].Spans[0])
		}
		// Snapshot is newest-first and both servers ran the same
		// sequence, so index i is the same request on both transports.
		// Every query runs under a plan, so every shard subtree of a
		// healthy query trace carries the plan span with its two
		// attributes.
		for _, tt := range snap {
			shape := traceShape(tt)
			n := strings.Count(shape, "shard>plan(algorithm,cached)")
			if tt.Spans[0].Name == "query" && tt.Anomaly == trace.AnomalyNone && n != opts.Shards {
				t.Fatalf("%s: query trace has %d plan spans, want %d:\n%s", tr, n, opts.Shards, shape)
			}
			shapes[tr] = append(shapes[tr], shape)
		}
		srv.Close()
	}
	for i := range shapes[TransportLocal] {
		if shapes[TransportLocal][i] != shapes[TransportLoopback][i] {
			t.Fatalf("trace %d shape diverges across transports:\nlocal:\n%s\nloopback:\n%s",
				i, shapes[TransportLocal][i], shapes[TransportLoopback][i])
		}
	}
}

// TestTraceSampledQuery checks the span tree of one sampled query:
// router stages plus one shard subtree per shard, all parented
// correctly, and the result carrying the retained trace id.
func TestTraceSampledQuery(t *testing.T) {
	initial := genGraphs(t, 20, 7)
	srv, err := New(initial, Options{Shards: 2, TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := subQ(srv, testQueries(initial)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == 0 {
		t.Fatal("sampled query result carries no trace id")
	}
	tr := srv.traces.Get(res.TraceID)
	if tr == nil {
		t.Fatalf("trace %s not retained", res.TraceID)
	}
	if tr.Anomaly != trace.AnomalyNone {
		t.Fatalf("healthy query classified %q", tr.Anomaly)
	}
	counts := map[string]int{}
	for _, sp := range tr.Spans {
		counts[sp.Name]++
	}
	for name, want := range map[string]int{
		"query": 1, "admission": 1, "fanout": 1, "merge": 1, "shard": 2, "queue": 2, "verify": 2,
	} {
		if counts[name] != want {
			t.Fatalf("span %q appears %d times, want %d (trace: %v)", name, counts[name], want, counts)
		}
	}
	root := tr.Spans[0]
	if root.Name != "query" || root.Parent != 0 {
		t.Fatalf("first span is not the root: %+v", root)
	}
	if got := root.Attr("kind"); got != "sub" {
		t.Fatalf("root kind attr %q", got)
	}
	// Every non-root span must resolve its parent inside the trace.
	ids := map[trace.SpanID]bool{}
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	for _, sp := range tr.Spans[1:] {
		if !ids[sp.Parent] {
			t.Fatalf("span %q has dangling parent %d", sp.Name, sp.Parent)
		}
	}
	// A failed shard keeps a partial subtree: the root records the error
	// and only the queue wait, the one stage measured before it, follows.
	failed := appendShardSpans(nil, tr.ID, tr.Spans[0].ID, 1, 0,
		&shardhost.QueryReply{Err: &core.CancelError{Stage: "verify", Err: context.Canceled}, QueueNanos: 5000}, 0, true)
	if len(failed) != 2 || failed[0].Attr("error") == "" || failed[1].Name != "queue" || failed[1].Parent != failed[0].ID {
		t.Fatalf("failed shard subtree: %+v", failed)
	}
}

// TestTraceTailRetention checks the tail-sampling half: an unsampled
// query that turns out anomalous (slow) is still retained, with its
// shard subtrees synthesized router-side from the reply stats.
func TestTraceTailRetention(t *testing.T) {
	initial := genGraphs(t, 20, 11)
	srv, err := New(initial, Options{
		Shards:           2,
		TraceSampleRate:  1e-9,            // sampler period ~1e9: only the first query samples
		SlowLogThreshold: time.Nanosecond, // every query is "slow"
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q := testQueries(initial)[0]
	if _, err := subQ(srv, q); err != nil { // warm-up: consumes the sampled slot
		t.Fatal(err)
	}
	res, err := subQ(srv, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == 0 {
		t.Fatal("anomalous unsampled query retained no trace")
	}
	tr := srv.traces.Get(res.TraceID)
	if tr == nil {
		t.Fatalf("trace %s not in store", res.TraceID)
	}
	if tr.Anomaly != trace.AnomalySlow {
		t.Fatalf("anomaly %q, want %q", tr.Anomaly, trace.AnomalySlow)
	}
	if got := tr.Spans[0].Attr("synthesized"); got != "true" {
		t.Fatal("synthesized trace not marked as such")
	}
	shards := 0
	for _, sp := range tr.Spans {
		if sp.Name == "shard" {
			shards++
		}
	}
	if shards != 2 {
		t.Fatalf("synthesized trace has %d shard subtrees, want 2", shards)
	}

	// A closed-server rejection is an error like any other: unsampled
	// queries and updates turned away with ErrClosed must be retained.
	srv.Close()
	if _, err := subQ(srv, q); err != ErrClosed {
		t.Fatalf("query on closed server: %v, want ErrClosed", err)
	}
	if _, err := srv.Update([]changeplan.Op{changeplan.DeleteOp(0)}); err != ErrClosed {
		t.Fatalf("update on closed server: %v, want ErrClosed", err)
	}
	retained := srv.traces.Snapshot()
	for i, op := range []string{"update", "query"} { // newest first
		tr := retained[i]
		if tr.Spans[0].Name != op || tr.Anomaly != trace.AnomalyError ||
			tr.Spans[0].Attr("error") != ErrClosed.Error() {
			t.Fatalf("closed-server %s rejection not retained as an error trace: %+v", op, tr.Spans[0])
		}
	}
}

// TestTraceDisabled checks the negative sample rate, which head-samples
// no healthy request: a healthy query leaves no trace behind, a slow one
// is still retained by tail retention and linked from its slow-log
// entry, and ?trace=1 still returns the query's own span tree.
func TestTraceDisabled(t *testing.T) {
	initial := genGraphs(t, 12, 5)
	q := testQueries(initial)[0]
	for _, slow := range []time.Duration{0, time.Nanosecond} {
		srv, err := New(initial, Options{
			Shards:           2,
			TraceSampleRate:  -1,
			SlowLogThreshold: slow,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := subQ(srv, q)
		if err != nil {
			t.Fatal(err)
		}
		if slow == 0 {
			if res.TraceID != 0 || len(srv.traces.Snapshot()) != 0 {
				t.Fatalf("healthy query retained trace %s at a negative rate", res.TraceID)
			}
		} else {
			entries := srv.SlowQueries()
			tr := srv.traces.Get(res.TraceID)
			if tr == nil || tr.Anomaly != trace.AnomalySlow || len(entries) != 1 || entries[0].TraceID != res.TraceID.String() {
				t.Fatalf("slow query at a negative rate: trace %+v, slow log %+v", tr, entries)
			}
		}
		ts := httptest.NewServer(srv.Handler())
		resp, err := http.Post(ts.URL+"/query?kind=sub&trace=1", "text/plain", strings.NewReader(codecOf(t, q)))
		if err != nil {
			t.Fatal(err)
		}
		qr := decodeJSON[queryResponse](t, resp.Body)
		resp.Body.Close()
		if qr.Trace == nil {
			t.Fatal("?trace=1 at a negative rate returned no trace")
		}
		shards := 0
		for _, sp := range qr.Trace.Spans {
			if sp.Name == "shard" {
				shards++
			}
		}
		if shards != 2 {
			t.Fatalf("?trace=1 at a negative rate returned %d shard subtrees, want 2: %+v", shards, qr.Trace)
		}
		status, body := getBody(t, ts.URL+"/debug/traces")
		if status != http.StatusOK || !strings.Contains(body, `"sample_rate": 0`) || !strings.Contains(body, qr.Trace.TraceID) {
			t.Fatalf("/debug/traces at a negative rate: %d %s", status, body)
		}
		ts.Close()
		srv.Close()
	}
}

// TestTracesEndpoint drives the debug endpoints over a sampled
// workload: list view newest-first, by-id fetch, and the two error
// paths (bad id, unknown id).
func TestTracesEndpoint(t *testing.T) {
	initial := genGraphs(t, 16, 3)
	srv, err := New(initial, Options{Shards: 2, TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, q := range testQueries(initial)[:2] {
		if _, err := subQ(srv, q); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type listBody struct {
		SampleRate float64     `json:"sample_rate"`
		Captured   uint64      `json:"captured"`
		Traces     []wireTrace `json:"traces"`
	}
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeJSON[listBody](t, resp.Body)
	resp.Body.Close()
	if list.SampleRate != 1 || list.Captured != 2 || len(list.Traces) != 2 {
		t.Fatalf("list view: %+v", list)
	}
	for _, wt := range list.Traces {
		if wt.SpanCount == 0 || len(wt.Spans) != 0 {
			t.Fatalf("summary must count spans without expanding them: %+v", wt)
		}
	}
	resp, err = http.Get(ts.URL + "/debug/traces/" + list.Traces[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	full := decodeJSON[wireTrace](t, resp.Body)
	resp.Body.Close()
	if full.TraceID != list.Traces[0].TraceID || len(full.Spans) != full.SpanCount {
		t.Fatalf("by-id view: %+v", full)
	}
	if full.Spans[0].Name != "query" || full.Spans[0].ParentID != "" {
		t.Fatalf("expanded root: %+v", full.Spans[0])
	}
	if status, _ := getBody(t, ts.URL+"/debug/traces/not-hex"); status != http.StatusBadRequest {
		t.Fatalf("bad id: status %d, want 400", status)
	}
	if status, _ := getBody(t, ts.URL+"/debug/traces/00000000000000ff"); status != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", status)
	}
}
