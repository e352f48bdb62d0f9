package router

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/dataset"
)

// promLine matches one Prometheus text-format sample line, optionally
// carrying an OpenMetrics-style exemplar suffix (same validator the obs
// package pins; duplicated here because it is not exported API, only a
// test contract).
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.e+-]+|NaN|\+Inf|-Inf)( # \{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"\} (-?[0-9.e+-]+|NaN|\+Inf|-Inf))?$`)

func checkExposition(t *testing.T, body string) {
	t.Helper()
	samples := 0
	for ln, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("exposition line %d is malformed: %q", ln+1, line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("exposition rendered no samples")
	}
}

// promValue extracts one sample's value from an exposition body; the
// series must appear exactly once.
func promValue(t *testing.T, body, series string) float64 {
	t.Helper()
	var got float64
	found := 0
	for _, line := range strings.Split(body, "\n") {
		name := line
		if i := strings.LastIndex(line, " "); i >= 0 {
			name = line[:i]
		}
		if name != series {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		got = v
		found++
	}
	if found != 1 {
		t.Fatalf("series %q appears %d times, want 1", series, found)
	}
	return got
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestMetricsExposition(t *testing.T) {
	initial := genGraphs(t, 24, 9)
	srv, err := New(initial, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := testQueries(initial)
	const rounds = 7
	for i := 0; i < rounds; i++ {
		q := queries[i%len(queries)]
		if _, err := subQ(srv, q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Update([]changeplan.Op{changeplan.AddOp(initial[0].Clone())}); err != nil {
		t.Fatal(err)
	}

	status, body := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	checkExposition(t, body)

	// The core series must exist — CI greps for these names too.
	for _, want := range []string{
		"# TYPE gcplus_queries_total counter",
		"# TYPE gcplus_stage_duration_seconds histogram",
		"# TYPE gcplus_queue_wait_seconds histogram",
		"gcplus_epoch 1",
		"gcplus_live_graphs 25",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The acceptance invariant: the aggregate query counter equals every
	// shard's query-stage histogram count (each query touches each
	// shard exactly once, and histograms never reset).
	total := promValue(t, body, "gcplus_queries_total")
	if total != rounds {
		t.Fatalf("gcplus_queries_total = %v, want %d", total, rounds)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if int64(total) != st.Queries {
		t.Fatalf("exposition total %v != Stats.Queries %d", total, st.Queries)
	}
	for i := 0; i < srv.Shards(); i++ {
		series := fmt.Sprintf(`gcplus_stage_duration_seconds_count{shard="%d",stage="query"}`, i)
		if got := promValue(t, body, series); got != total {
			t.Fatalf("%s = %v, want %v", series, got, total)
		}
		shardQ := fmt.Sprintf(`gcplus_shard_queries_total{shard="%d"}`, i)
		if got := promValue(t, body, shardQ); got != total {
			t.Fatalf("%s = %v, want %v", shardQ, got, total)
		}
	}
	// Stage histogram sums must be self-consistent: the verify stage is
	// part of the query stage, so its summed time cannot exceed it by
	// more than rounding.
	qSum := promValue(t, body, `gcplus_stage_duration_seconds_sum{shard="0",stage="query"}`)
	vSum := promValue(t, body, `gcplus_stage_duration_seconds_sum{shard="0",stage="verify"}`)
	if vSum > qSum+1e-6 {
		t.Fatalf("verify sum %v exceeds query sum %v", vSum, qSum)
	}
}

func TestHealthzReadyz(t *testing.T) {
	initial := genGraphs(t, 16, 3)
	srv, err := New(initial, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := getBody(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if status, body := getBody(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz status %d: %s", status, body)
	}

	srv.Close()
	if status, _ := getBody(t, ts.URL+"/healthz"); status != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: status %d, want 503", status)
	}
	if status, _ := getBody(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close: status %d, want 503", status)
	}
}

// TestReadyzBacklog: invalidated pairs awaiting repair are a backlog,
// and a negative threshold (= "any backlog is unready") must flip
// readiness. The shard worker is parked while the validating query and
// the readiness probe's stats job line up behind it, so FIFO order puts
// the probe between the validation that queues the pairs and the repair
// plan job that would drain them.
func TestReadyzBacklog(t *testing.T) {
	initial := genGraphs(t, 16, 5)
	srv, err := New(initial, Options{
		Shards:                 1,
		Cache:                  &cache.Config{Capacity: 32, WindowSize: 2, RepairQueue: 64},
		ReadyMaxPendingRepairs: -1,
		pressureInterval:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := getBody(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("fresh server readyz status %d: %s", status, body)
	}

	// Populate the cache, then change every graph: validation is lazy, so
	// the log suffix just accumulates until the next query.
	queries := testQueries(initial)
	for _, q := range queries {
		if _, err := subQ(srv, q); err != nil {
			t.Fatal(err)
		}
	}
	for id := range initial {
		// One of the pair always applies, whichever way (0,1) starts.
		srv.Update([]changeplan.Op{{Type: dataset.OpUpdateAddEdge, GraphID: id, U: 0, V: 1}})
		srv.Update([]changeplan.Op{{Type: dataset.OpUpdateRemoveEdge, GraphID: id, U: 0, V: 1}})
	}

	release := blockShard(srv)
	defer release()
	queried := make(chan error, 1)
	go func() {
		_, err := subQ(srv, queries[0])
		queried <- err
	}()
	waitFor(t, func() bool { return srv.hosts[0].QueueLen() >= 1 })
	type probe struct {
		status int
		body   string
		err    error
	}
	probed := make(chan probe, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			probed <- probe{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		probed <- probe{status: resp.StatusCode, body: string(b), err: err}
	}()
	waitFor(t, func() bool { return srv.hosts[0].QueueLen() >= 2 })
	release()
	if err := <-queried; err != nil {
		t.Fatal(err)
	}
	got := <-probed
	if got.err != nil {
		t.Fatal(got.err)
	}
	if strings.Contains(got.body, `"pending_repairs":0`) {
		t.Skip("workload produced no repair backlog; nothing to assert")
	}
	if got.status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with backlog: status %d, want 503 (%s)", got.status, got.body)
	}
}

func TestQueryTraceAndSlowLog(t *testing.T) {
	initial := genGraphs(t, 20, 7)
	srv, err := New(initial, Options{
		Shards:           2,
		SlowLogThreshold: time.Nanosecond, // capture everything
		SlowLogSize:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := testQueries(initial)
	q := queries[0]
	resp, err := http.Post(ts.URL+"/query?kind=sub&trace=1", "text/plain",
		strings.NewReader(codecOf(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	qr := decodeJSON[queryResponse](t, resp.Body)
	resp.Body.Close()
	if qr.Trace == nil {
		t.Fatal("trace requested but absent")
	}
	// The inline tree is the query's own, in the /debug/traces/{id}
	// form: one shard subtree per shard, each with a plan span naming
	// the algorithm and the per-shard facts as attributes.
	names := make(map[string]string, len(qr.Trace.Spans)) // span id → name
	for _, sp := range qr.Trace.Spans {
		names[sp.SpanID] = sp.Name
	}
	shards := map[string]bool{}
	plans, verifies := 0, 0
	for _, sp := range qr.Trace.Spans {
		switch sp.Name {
		case "shard":
			shards[sp.Attrs["shard"]] = true
			for _, k := range []string{"query_us", "overhead_us", "transport_us"} {
				if v, err := strconv.ParseInt(sp.Attrs[k], 10, 64); err != nil || v < 0 {
					t.Fatalf("shard span attr %s = %q", k, sp.Attrs[k])
				}
			}
		case "plan":
			plans++
			if names[sp.ParentID] != "shard" || sp.Attrs["algorithm"] == "" {
				t.Fatalf("plan span not under a shard or naming no algorithm: %+v", sp)
			}
		case "verify":
			verifies++
			for _, k := range []string{"cpu_us", "states"} {
				if v, err := strconv.ParseInt(sp.Attrs[k], 10, 64); err != nil || v < 0 {
					t.Fatalf("verify span attr %s = %q", k, sp.Attrs[k])
				}
			}
		}
	}
	if len(shards) != 2 || plans != 2 || verifies != 2 {
		t.Fatalf("trace has shards %v, %d plan and %d verify spans; want 2 of each", shards, plans, verifies)
	}
	if status, body := getBody(t, ts.URL+"/debug/traces/"+qr.Trace.TraceID); status != http.StatusOK ||
		len(decodeJSON[wireTrace](t, strings.NewReader(body)).Spans) != len(qr.Trace.Spans) {
		t.Fatalf("inline trace %s differs from its retained copy: %d %s", qr.Trace.TraceID, status, body)
	}

	// Untraced query: no trace field.
	resp, err = http.Post(ts.URL+"/query?kind=sub", "text/plain",
		strings.NewReader(codecOf(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	qr = decodeJSON[queryResponse](t, resp.Body)
	resp.Body.Close()
	if qr.Trace != nil {
		t.Fatal("trace present without trace=1")
	}
	// ?trace=1 does not use up a head-sampler slot: this query was the
	// sampler's first, so it was head-sampled rather than kept only by
	// tail retention.
	if tr := srv.traces.Snapshot()[0]; tr.Spans[0].Attr("synthesized") != "" {
		t.Fatal("the query after a ?trace=1 request lost its head-sampler slot")
	}

	// Fill past the ring bound; retention is the newest SlowLogSize.
	for i := 0; i < 6; i++ {
		if _, err := subQ(srv, queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
	}
	type slowLogBody struct {
		ThresholdUS int64       `json:"threshold_us"`
		Captured    int64       `json:"captured"`
		Entries     []SlowQuery `json:"entries"`
	}
	resp, err = http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	slow := decodeJSON[slowLogBody](t, resp.Body)
	resp.Body.Close()
	if slow.Captured != 8 { // 2 HTTP + 6 direct
		t.Fatalf("captured = %d, want 8", slow.Captured)
	}
	if len(slow.Entries) != 4 {
		t.Fatalf("retained = %d, want ring size 4", len(slow.Entries))
	}
	for i, e := range slow.Entries {
		// A slow query is anomalous, so every entry links a retained
		// trace.
		if e.TraceID == "" {
			t.Fatalf("entry %d links no retained trace: %+v", i, e)
		}
		if status, body := getBody(t, ts.URL+"/debug/traces/"+e.TraceID); status != http.StatusOK {
			t.Fatalf("linked trace %s not fetchable: status %d (%s)", e.TraceID, status, body)
		}
		if !strings.HasPrefix(e.Query, "t ") {
			t.Fatalf("entry %d query text not in codec form: %q", i, e.Query)
		}
		if i > 0 && e.Time.After(slow.Entries[i-1].Time) {
			t.Fatalf("entries not newest-first at %d", i)
		}
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SlowQueries != 8 {
		t.Fatalf("Stats.SlowQueries = %d, want 8", st.SlowQueries)
	}
}

// TestObsUnderConcurrentLoad hammers queries, updates and observability
// endpoints concurrently (race detector coverage), then checks the
// final exposition is parseable and count-consistent.
func TestObsUnderConcurrentLoad(t *testing.T) {
	initial := genGraphs(t, 30, 13)
	srv, err := New(initial, Options{
		Shards:           2,
		SlowLogThreshold: time.Nanosecond,
		SlowLogSize:      16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := testQueries(initial)
	const queriers, perQuerier = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perQuerier; i++ {
				if _, err := subQ(srv, queries[(w+i)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := srv.Update([]changeplan.Op{changeplan.AddOp(initial[i].Clone())}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			status, body := getBody(t, ts.URL+"/metrics")
			if status != http.StatusOK {
				t.Errorf("concurrent metrics status %d", status)
				return
			}
			checkExposition(t, body)
			if status, _ := getBody(t, ts.URL+"/debug/slowlog"); status != http.StatusOK {
				t.Errorf("concurrent slowlog status %d", status)
				return
			}
		}
	}()
	wg.Wait()

	status, body := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("final metrics status %d", status)
	}
	checkExposition(t, body)
	want := float64(queriers * perQuerier)
	if got := promValue(t, body, "gcplus_queries_total"); got != want {
		t.Fatalf("gcplus_queries_total = %v, want %v", got, want)
	}
	for i := 0; i < srv.Shards(); i++ {
		series := fmt.Sprintf(`gcplus_stage_duration_seconds_count{shard="%d",stage="query"}`, i)
		if got := promValue(t, body, series); got != want {
			t.Fatalf("%s = %v, want %v", series, got, want)
		}
	}
}
