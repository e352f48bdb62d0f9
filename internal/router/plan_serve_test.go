package router

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcplus/internal/cache"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
)

// TestQueryLimitExactPrefix pins the serving layer's streaming contract:
// for any limit, SubgraphQueryLimitCtx returns exactly the min(limit, n)
// smallest ids of the full n-id answer, with Truncated set whenever ids
// were withheld — across shard merge, Method M chosen by measurement.
func TestQueryLimitExactPrefix(t *testing.T) {
	initial := genGraphs(t, 60, 29)
	srv, err := New(initial, Options{
		Shards: 3,
		Cache:  &cache.Config{Capacity: 30, WindowSize: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mirror := dataset.New(initial)
	gt := groundTruth(t, mirror)
	ctx := context.Background()

	queries := testQueries(initial)
	if len(queries) == 0 {
		t.Fatal("no test queries generated")
	}
	sawTruncated := false
	for qi, q := range queries {
		want, err := gt.SubgraphQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		full := want.AnswerIDs()
		for _, limit := range []int{1, 2, len(full) / 2, len(full), len(full) + 5} {
			if limit <= 0 {
				continue
			}
			res, err := srv.Query(ctx, cache.KindSub, q, limit)
			if err != nil {
				t.Fatal(err)
			}
			n := limit
			if n > len(full) {
				n = len(full)
			}
			if !equalIDs(res.IDs, full[:n]) {
				t.Fatalf("query %d limit %d: got %v, want prefix %v", qi, limit, res.IDs, full[:n])
			}
			if limit < len(full) && !res.Truncated {
				t.Fatalf("query %d limit %d < %d answers: Truncated not set", qi, limit, len(full))
			}
			if limit > len(full) && res.Truncated {
				t.Fatalf("query %d limit %d > %d answers: spurious Truncated", qi, limit, len(full))
			}
			sawTruncated = sawTruncated || res.Truncated
		}
		// The unlimited path must be unaffected by interleaved streaming.
		res, err := srv.Query(ctx, cache.KindSub, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(res.IDs, full) {
			t.Fatalf("query %d: full answer %v != ground truth %v", qi, res.IDs, full)
		}
	}
	if !sawTruncated {
		t.Fatal("fixture never produced a truncated answer; contract not exercised")
	}

	// The repeated query stream above must have hit the plan cache, and
	// the counters must surface through Stats.
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHits == 0 {
		t.Fatalf("PlanCacheHits = 0 after repeated queries (misses=%d)", st.PlanCacheMisses)
	}
}

// TestHTTPQueryLimit drives ?limit=N through the HTTP surface: the
// truncated field and the plan-cache counter in /metrics.
func TestHTTPQueryLimit(t *testing.T) {
	initial := genGraphs(t, 40, 31)
	srv, err := New(initial, Options{Shards: 2, Method: "VF2"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mirror := dataset.New(initial)
	gt := groundTruth(t, mirror)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var q *graph.Graph
	for _, cand := range testQueries(initial) {
		want, err := gt.SubgraphQuery(cand)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.AnswerIDs()) >= 3 {
			q = cand
			break
		}
	}
	if q == nil {
		t.Fatal("no query with >= 3 answers")
	}
	want, err := gt.SubgraphQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	full := want.AnswerIDs()

	resp, err := http.Post(ts.URL+"/query?kind=sub&limit=2", "text/plain", strings.NewReader(codecOf(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("limited query status %d: %s", resp.StatusCode, body)
	}
	qr := decodeJSON[queryResponse](t, resp.Body)
	resp.Body.Close()
	if !equalIDs(qr.IDs, full[:2]) || !qr.Truncated {
		t.Fatalf("limit=2: ids=%v truncated=%v, want %v truncated", qr.IDs, qr.Truncated, full[:2])
	}

	// Malformed limits are client errors, not servework.
	for _, bad := range []string{"0", "-3", "x"} {
		resp, err := http.Post(ts.URL+"/query?kind=sub&limit="+bad, "text/plain", strings.NewReader(codecOf(t, q)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=%q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Repeat the query so the plan cache hits, then look for the counter
	// in the Prometheus exposition.
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/query?kind=sub", "text/plain", strings.NewReader(codecOf(t, q)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "gcplus_plan_cache_hits_total") {
		t.Fatal("exposition missing gcplus_plan_cache_hits_total")
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "gcplus_plan_cache_hits_total ") {
			if strings.TrimSpace(strings.TrimPrefix(line, "gcplus_plan_cache_hits_total")) == "0" {
				t.Fatalf("plan cache hits stayed 0 after repeats: %q", line)
			}
		}
	}
}
