package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcplus/internal/dataset"
	"gcplus/internal/graph"
)

func iptr(v int) *int { return &v }

func codecOf(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, []*graph.Graph{g}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func decodeJSON[T any](t *testing.T, r io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPQueryUpdateStats(t *testing.T) {
	initial := genGraphs(t, 40, 17)
	srv, err := New(initial, Options{Shards: 4, Method: "VF2"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mirror := dataset.New(initial)
	gt := groundTruth(t, mirror)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := testQueries(initial)[0]
	want, err := gt.SubgraphQuery(q)
	if err != nil {
		t.Fatal(err)
	}

	// POST /query (sub, then super).
	resp, err := http.Post(ts.URL+"/query?kind=sub", "text/plain", strings.NewReader(codecOf(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	qr := decodeJSON[queryResponse](t, resp.Body)
	resp.Body.Close()
	if !equalIDs(qr.IDs, want.AnswerIDs()) {
		t.Fatalf("HTTP sub answer %v, ground truth %v", qr.IDs, want.AnswerIDs())
	}
	if qr.Kind != "sub" || qr.Epoch != 0 || qr.Count != len(qr.IDs) || qr.Candidates != 40 {
		t.Fatalf("unexpected response envelope: %+v", qr)
	}

	wantSuper, err := gt.SupergraphQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/query?kind=super", "text/plain", strings.NewReader(codecOf(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	qr = decodeJSON[queryResponse](t, resp.Body)
	resp.Body.Close()
	if !equalIDs(qr.IDs, wantSuper.AnswerIDs()) {
		t.Fatalf("HTTP super answer %v, ground truth %v", qr.IDs, wantSuper.AnswerIDs())
	}

	// POST /update: ADD a clone of graph 1, DEL graph 0, UA on graph 2.
	g2 := mirror.Graph(2)
	var ua struct{ u, v int }
	ua.u, ua.v = -1, -1
	for u := 0; u < g2.NumVertices() && ua.u < 0; u++ {
		for v := u + 1; v < g2.NumVertices(); v++ {
			if !g2.HasEdge(u, v) {
				ua.u, ua.v = u, v
				break
			}
		}
	}
	if ua.u < 0 {
		t.Fatal("graph 2 is complete; pick a different seed")
	}
	update := updateRequest{Ops: []wireOp{
		{Op: "ADD", Graph: codecOf(t, initial[1].Clone())},
		{Op: "DEL", ID: iptr(0)},
		{Op: "UA", ID: iptr(2), U: iptr(ua.u), V: iptr(ua.v)},
	}}
	body, err := json.Marshal(update)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("update status %d: %s", resp.StatusCode, b)
	}
	ur := decodeJSON[updateResponse](t, resp.Body)
	resp.Body.Close()
	if ur.Epoch != 1 || ur.Applied != 3 {
		t.Fatalf("update response: %+v", ur)
	}
	if ur.Ops[0].ID != 40 {
		t.Fatalf("ADD id %d, want 40", ur.Ops[0].ID)
	}

	// Mirror the same ops and re-check the query answer post-update.
	if _, err := mirror.Add(initial[1].Clone()); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := mirror.UpdateAddEdge(2, ua.u, ua.v); err != nil {
		t.Fatal(err)
	}
	want, err = gt.SubgraphQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/query", "text/plain", strings.NewReader(codecOf(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	qr = decodeJSON[queryResponse](t, resp.Body)
	resp.Body.Close()
	if !equalIDs(qr.IDs, want.AnswerIDs()) {
		t.Fatalf("post-update answer %v, ground truth %v", qr.IDs, want.AnswerIDs())
	}
	if qr.Epoch != 1 {
		t.Fatalf("post-update epoch %d, want 1", qr.Epoch)
	}

	// GET /stats.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	st := decodeJSON[Stats](t, resp.Body)
	resp.Body.Close()
	if st.Epoch != 1 || st.Shards != 4 || st.LiveGraphs != 40 { // 40 - DEL + ADD
		t.Fatalf("stats: %+v", st)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard stats: %d entries", len(st.PerShard))
	}
}

func TestHTTPErrors(t *testing.T) {
	initial := genGraphs(t, 10, 2)
	srv, err := New(initial, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"bad kind", "POST", "/query?kind=nope", "t q\nv 0 1\n", http.StatusBadRequest},
		{"bad graph", "POST", "/query", "not a graph", http.StatusBadRequest},
		{"no graph", "POST", "/query", "", http.StatusBadRequest},
		{"two graphs", "POST", "/query", "t a\nv 0 1\nt b\nv 0 1\n", http.StatusBadRequest},
		{"wrapping endpoint", "POST", "/query", "t q\nv 0 1\nv 1 2\ne 4294967296 1\n", http.StatusBadRequest},
		{"negative wrapping endpoint", "POST", "/query", "t q\nv 0 1\nv 1 2\ne 0 -4294967295\n", http.StatusBadRequest},
		{"get query", "GET", "/query", "", http.StatusMethodNotAllowed},
		{"bad op", "POST", "/update", `{"ops":[{"op":"NOPE"}]}`, http.StatusBadRequest},
		{"bad json", "POST", "/update", `{`, http.StatusBadRequest},
		{"empty ops", "POST", "/update", `{"ops":[]}`, http.StatusBadRequest},
		{"bad add graph", "POST", "/update", `{"ops":[{"op":"ADD","graph":"nope"}]}`, http.StatusBadRequest},
		{"wrapping add endpoint", "POST", "/update", `{"ops":[{"op":"ADD","graph":"t g\nv 0 1\nv 1 2\ne 4294967296 1\n"}]}`, http.StatusBadRequest},
		{"DEL without id", "POST", "/update", `{"ops":[{"op":"DEL"}]}`, http.StatusBadRequest},
		{"UA without u/v", "POST", "/update", `{"ops":[{"op":"UA","id":2}]}`, http.StatusBadRequest},
		{"UR without id", "POST", "/update", `{"ops":[{"op":"UR","u":0,"v":1}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	// Oversized request bodies are cut off at the MaxBytesReader limit
	// and answered with 413, for both the text-codec query body and the
	// JSON update body.
	bigQuery := strings.Repeat("# padding line to exceed the query body limit\n", maxQueryBodyBytes/46+2)
	resp413, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(bigQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp413.Body.Close()
	if resp413.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query body: status %d, want 413", resp413.StatusCode)
	}
	bigUpdate := `{"ops":[{"op":"ADD","graph":"` + strings.Repeat("x", maxUpdateBodyBytes) + `"}]}`
	resp413, err = http.Post(ts.URL+"/update", "application/json", strings.NewReader(bigUpdate))
	if err != nil {
		t.Fatal(err)
	}
	resp413.Body.Close()
	if resp413.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized update body: status %d, want 413", resp413.StatusCode)
	}
	// A body under the limit still parses (regression guard for the
	// wrapping itself).
	resp413, err = http.Post(ts.URL+"/query", "text/plain", strings.NewReader("t q\nv 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp413.Body.Close()
	if resp413.StatusCode != http.StatusOK {
		t.Fatalf("small query body: status %d, want 200", resp413.StatusCode)
	}

	// A closed server answers 503.
	srv.Close()
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader("t q\nv 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server: status %d, want 503", resp.StatusCode)
	}
}
