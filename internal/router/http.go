package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/trace"
	"gcplus/internal/transport"
)

// Request-body limits. Handlers wrap bodies in http.MaxBytesReader so an
// oversized (or unbounded) upload is cut off at the limit and answered
// with 413 instead of being buffered into memory. Queries are single
// pattern graphs — small by nature; update batches carry whole graphs
// and get more headroom.
const (
	maxQueryBodyBytes  = 1 << 20  // 1 MiB
	maxUpdateBodyBytes = 16 << 20 // 16 MiB
)

// The HTTP API of cmd/gcserve:
//
//	POST /query?kind=sub|super   body: one graph in the text codec
//	     &trace=1                sample the query's trace and include its
//	                             span tree (the /debug/traces/{id} form)
//	     &limit=N                stream: return the N smallest answer ids
//	                             (exact prefix); "truncated" reports a cut
//	POST /update                 body: JSON update batch (see updateRequest)
//	GET  /stats                  JSON server + per-shard statistics
//	GET  /metrics                Prometheus text exposition
//	GET  /healthz                liveness: 200 while the server accepts work
//	GET  /readyz                 readiness: 200 while the repair backlog is
//	                             at or below Options.ReadyMaxPendingRepairs
//	GET  /debug/slowlog          JSON slow-query log, newest first
//	GET  /debug/traces           JSON retained distributed traces, newest
//	                             first (summaries: id, wall, anomaly)
//	GET  /debug/traces/{id}      one trace's full span tree by 16-hex id
//
// Queries run concurrently; update batches are serialized through the
// single-writer path and reported with the epoch they produced.

// Handler returns the HTTP API over the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowLog)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	return mux
}

// queryResponse is the wire form of a QueryResult. Trace is present
// only when the request asked for it (?trace=1).
type queryResponse struct {
	IDs            []int      `json:"ids"`
	Count          int        `json:"count"`
	Epoch          uint64     `json:"epoch"`
	Kind           string     `json:"kind"`
	WallMicros     int64      `json:"wall_us"`
	Candidates     int        `json:"candidates"`
	SubIsoTests    int        `json:"subiso_tests"`
	TestsSaved     int        `json:"tests_saved"`
	ZeroTestShards int        `json:"zero_test_shards"`
	Truncated      bool       `json:"truncated,omitempty"`
	Trace          *wireTrace `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	kind := cache.KindSub
	switch k := r.URL.Query().Get("kind"); k {
	case "", "sub":
	case "super":
		kind = cache.KindSuper
	default:
		httpError(w, http.StatusBadRequest, "kind must be sub or super, got %q", k)
		return
	}
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "limit must be a positive integer, got %q", l)
			return
		}
		limit = n
	}
	buf := queryBufs.Get().(*bytes.Buffer)
	defer recycleQueryBuf(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxQueryBodyBytes)); err != nil {
		httpError(w, bodyErrorStatus(err), "bad query graph: %v", err)
		return
	}
	graphs, err := graph.ParseBytes(buf.Bytes())
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad query graph: %v", err)
		return
	}
	if len(graphs) != 1 {
		httpError(w, http.StatusBadRequest, "want exactly one query graph, got %d", len(graphs))
		return
	}
	t := r.URL.Query().Get("trace")
	traced := t == "1" || t == "true"
	res, err := s.query(r.Context(), kind, graphs[0], limit, traced)
	if err != nil {
		writeErr(w, err, "query failed: %v", err)
		return
	}
	ids := res.IDs
	if ids == nil {
		ids = []int{}
	}
	out := queryResponse{
		IDs:            ids,
		Count:          len(ids),
		Epoch:          res.Epoch,
		Kind:           res.Kind,
		WallMicros:     res.Wall.Microseconds(),
		Candidates:     res.Candidates,
		SubIsoTests:    res.SubIsoTests,
		TestsSaved:     res.TestsSaved,
		ZeroTestShards: res.ZeroTestShards,
		Truncated:      res.Truncated,
	}
	if traced { // a forced trace is always retained
		out.Trace = expandTrace(res.trace)
	}
	// The parsed graph holds no reference into buf, so it is free to
	// carry the (compact) reply.
	buf.Reset()
	_ = json.NewEncoder(buf).Encode(out) // plain values cannot fail to encode
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// queryBufs recycles POST /query's body and reply buffers.
var queryBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// recycleQueryBuf pools buf unless a large reply grew it past what a
// maximal body needs.
func recycleQueryBuf(buf *bytes.Buffer) {
	if buf.Cap() <= 2*maxQueryBodyBytes {
		queryBufs.Put(buf)
	}
}

// updateRequest is the wire form of an update batch.
type updateRequest struct {
	Ops []wireOp `json:"ops"`
}

// wireOp is one operation: {"op":"ADD","graph":"t g\nv 0 1\n..."} or
// {"op":"DEL","id":3} or {"op":"UA","id":2,"u":0,"v":1} (UR likewise).
// The targets are pointers so a missing field is rejected instead of
// silently defaulting to graph 0 / vertex 0.
type wireOp struct {
	Op    string `json:"op"`
	Graph string `json:"graph,omitempty"`
	ID    *int   `json:"id,omitempty"`
	U     *int   `json:"u,omitempty"`
	V     *int   `json:"v,omitempty"`
}

// decode converts the wire op to a changeplan.Op.
func (wo wireOp) decode() (changeplan.Op, error) {
	t, err := dataset.ParseOpType(wo.Op)
	if err != nil {
		return changeplan.Op{}, err
	}
	op := changeplan.Op{Type: t}
	if t == dataset.OpAdd {
		gs, err := graph.ParseBytes([]byte(wo.Graph))
		if err != nil {
			return changeplan.Op{}, fmt.Errorf("ADD graph: %w", err)
		}
		if len(gs) != 1 {
			return changeplan.Op{}, fmt.Errorf("ADD wants exactly one graph, got %d", len(gs))
		}
		op.Graph = gs[0]
		return op, nil
	}
	if wo.ID == nil {
		return changeplan.Op{}, fmt.Errorf("%s requires \"id\"", wo.Op)
	}
	op.GraphID = *wo.ID
	if t == dataset.OpUpdateAddEdge || t == dataset.OpUpdateRemoveEdge {
		if wo.U == nil || wo.V == nil {
			return changeplan.Op{}, fmt.Errorf("%s requires \"u\" and \"v\"", wo.Op)
		}
		op.U, op.V = *wo.U, *wo.V
	}
	return op, nil
}

// updateResponse is the wire form of an UpdateResult. DurabilityError
// is set (with status 503, under the default fail-update WAL policy)
// when the batch was applied in memory but a WAL append failed — the
// batch may not survive a crash. Clients must NOT blindly retry such a
// 503: the ops are already applied, and re-submitting would
// double-apply them. The error names the failed shard.
type updateResponse struct {
	Epoch           uint64         `json:"epoch"`
	Applied         int            `json:"applied"`
	Ops             []wireOpResult `json:"ops"`
	DurabilityError string         `json:"durability_error,omitempty"`
}

type wireOpResult struct {
	ID    int    `json:"id"`
	Error string `json:"error,omitempty"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, bodyErrorStatus(err), "bad update request: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		httpError(w, http.StatusBadRequest, "empty update batch")
		return
	}
	ops := make([]changeplan.Op, len(req.Ops))
	for i, wo := range req.Ops {
		op, err := wo.decode()
		if err != nil {
			httpError(w, http.StatusBadRequest, "op %d: %v", i, err)
			return
		}
		ops[i] = op
	}
	res, err := s.UpdateCtx(r.Context(), ops)
	if err != nil && res == nil {
		writeErr(w, err, "update failed: %v", err)
		return
	}
	out := updateResponse{Epoch: res.Epoch, Applied: res.Applied, Ops: make([]wireOpResult, len(res.Ops))}
	for i, opRes := range res.Ops {
		out.Ops[i].ID = opRes.ID
		if opRes.Err != nil {
			out.Ops[i].Error = opRes.Err.Error()
		}
	}
	if err != nil {
		// Applied in memory, durability uncertain (WAL failure under the
		// fail-update policy). Hand the full result back — assigned ids
		// included — under 503 so the client knows the server is shedding
		// durability and must not re-submit the already-applied batch.
		out.DurabilityError = err.Error()
		writeJSON(w, http.StatusServiceUnavailable, out)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats()
	if err != nil {
		httpError(w, statusOf(err), "stats failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics renders the Prometheus exposition: one epoch-consistent
// Stats snapshot refreshes the mirrored gauges/counters, then the
// registry — live histograms included — is written out.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats()
	if err != nil {
		httpError(w, statusOf(err), "metrics failed: %v", err)
		return
	}
	s.obs.mirror(st)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.reg.WriteProm(w)
}

// handleHealthz is liveness: the process is up and the server accepts
// work. It flips to 503 only once Close has run.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.seqMu.RLock()
	closed := s.closed
	s.seqMu.RUnlock()
	if closed {
		httpError(w, http.StatusServiceUnavailable, "server is closed")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: recovery is complete (New does not return
// before it is) and the summed repair backlog is at or below the
// configured threshold — a warm-restarted instance behind a load
// balancer should not take traffic while its cache validity is still
// being repaired en masse.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats()
	if err != nil {
		httpError(w, statusOf(err), "readiness check failed: %v", err)
		return
	}
	// Degradation state rides along for operators but does not flip
	// readiness: degraded answers are still exact, and pulling a
	// degraded instance out of rotation would only concentrate the load
	// on its peers.
	body := map[string]any{
		"pending_repairs":   st.PendingRepairs,
		"threshold":         s.opts.ReadyMaxPendingRepairs,
		"degradation_level": st.DegradationLevel,
		"degradation_mode":  st.DegradationMode,
	}
	if st.PendingRepairs > s.opts.ReadyMaxPendingRepairs {
		body["ready"] = false
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["ready"] = true
	writeJSON(w, http.StatusOK, body)
}

// handleSlowLog serves the retained slow-query entries, newest first.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	entries := s.SlowQueries()
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_us": s.opts.SlowLogThreshold.Microseconds(),
		"captured":     s.slow.captured(),
		"entries":      entries,
	})
}

// wireTrace / wireSpan are the JSON forms of a retained trace. Ids are
// the 16-hex-digit spelling exemplars use, so a trace_id copied off a
// /metrics exemplar fetches directly.
type wireTrace struct {
	TraceID        string     `json:"trace_id"`
	StartUnixNanos int64      `json:"start_unix_ns"`
	WallMicros     int64      `json:"wall_us"`
	Anomaly        string     `json:"anomaly,omitempty"`
	SpanCount      int        `json:"span_count"`
	Root           string     `json:"root,omitempty"`
	Spans          []wireSpan `json:"spans,omitempty"`
}

type wireSpan struct {
	SpanID         string            `json:"span_id"`
	ParentID       string            `json:"parent_id,omitempty"`
	Name           string            `json:"name"`
	StartUnixNanos int64             `json:"start_unix_ns"`
	DurMicros      int64             `json:"dur_us"`
	Attrs          map[string]string `json:"attrs,omitempty"`
}

// summarizeTrace renders a trace without its spans (the list view);
// expandTrace includes them (the by-id view).
func summarizeTrace(t *trace.Trace) wireTrace {
	wt := wireTrace{
		TraceID:        t.ID.String(),
		StartUnixNanos: t.StartNanos,
		WallMicros:     t.WallNanos / 1e3,
		Anomaly:        t.Anomaly,
		SpanCount:      len(t.Spans),
	}
	if len(t.Spans) > 0 {
		wt.Root = t.Spans[0].Name
	}
	return wt
}

func expandTrace(t *trace.Trace) *wireTrace {
	wt := summarizeTrace(t)
	wt.Spans = make([]wireSpan, len(t.Spans))
	for i, sp := range t.Spans {
		ws := wireSpan{
			SpanID:         fmt.Sprintf("%016x", uint64(sp.ID)),
			Name:           sp.Name,
			StartUnixNanos: sp.StartNanos,
			DurMicros:      sp.DurNanos / 1e3,
		}
		if sp.Parent != 0 {
			ws.ParentID = fmt.Sprintf("%016x", uint64(sp.Parent))
		}
		if len(sp.Attrs) > 0 {
			ws.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				ws.Attrs[a.Key] = a.Value
			}
		}
		wt.Spans[i] = ws
	}
	return &wt
}

// handleTraces serves the retained traces, newest first across the
// normal and anomalous rings.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	snap := s.traces.Snapshot()
	out := make([]wireTrace, len(snap))
	for i, t := range snap {
		out[i] = summarizeTrace(t)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sample_rate": s.traceRate,
		"captured":    s.traces.Added(),
		"traces":      out,
	})
}

// handleTraceByID serves one retained trace's full span tree.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id, ok := trace.ParseID(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusBadRequest, "trace id must be up to 16 hex digits, got %q", r.PathValue("id"))
		return
	}
	t := s.traces.Get(id)
	if t == nil {
		httpError(w, http.StatusNotFound, "no retained trace %s (evicted or never sampled)", id)
		return
	}
	writeJSON(w, http.StatusOK, expandTrace(t))
}

// statusOf maps an error to its HTTP status through the shared
// transport status table — the same classification the wire protocol
// uses, so an error crossing the loopback transport lands on the same
// status code as one raised in-process.
func statusOf(err error) int {
	return transport.StatusOf(err).HTTPCode()
}

// writeErr maps err to its status and writes the JSON error body,
// adding the Retry-After header on admission sheds — the one failure
// mode where immediate retry is both safe and useful.
func writeErr(w http.ResponseWriter, err error, format string, args ...any) {
	status := statusOf(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	httpError(w, status, format, args...)
}

// bodyErrorStatus maps a request-body read/decode failure to a status:
// 413 when the MaxBytesReader limit was hit, 400 otherwise.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
