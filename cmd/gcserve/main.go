// Command gcserve is the GC+ query-serving daemon: a sharded, concurrent
// HTTP front-end over the semantic graph cache. Queries fan out to N
// runtime shards (each with its own partition, cache and CON/EVI
// consistency machinery) while dataset updates flow through an
// epoch-sequenced single-writer path, so every answer reflects one
// consistent dataset version.
//
// With -data-dir the daemon is durable: update batches are written to a
// per-shard WAL and each shard's dataset is snapshotted periodically,
// so a restart comes back with the persisted dataset at the last
// acknowledged epoch (the dataset flags are only used when the
// directory holds no state yet); the cache starts empty and re-warms
// from queries. SIGINT/SIGTERM trigger a graceful
// shutdown: in-flight requests drain, shard queues flush, and a final
// snapshot is written before the process exits 0.
//
// Usage:
//
//	gcserve -synthetic 2000 -shards 8            # serve a generated dataset
//	gcserve -dataset graphs.txt -model EVI       # serve graphs from a file
//	gcserve -synthetic 2000 -data-dir /var/lib/gcplus   # durable serving
//	gcserve -data-dir /var/lib/gcplus            # restart from state
//
// API:
//
//	POST /query?kind=sub|super    body: one graph in the text codec
//	     &trace=1                 include the query's span tree
//	     &limit=N                 return the N smallest answer ids (exact
//	                              prefix; "truncated" marks a cut)
//	POST /update                  body: {"ops":[{"op":"ADD","graph":"..."},
//	                                            {"op":"DEL","id":3},
//	                                            {"op":"UA","id":2,"u":0,"v":1}]}
//	GET  /stats                   server + per-shard statistics
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 liveness probe
//	GET  /readyz                  readiness probe (repair backlog gated)
//	GET  /debug/slowlog           slow-query log (-slowlog-threshold)
//	GET  /debug/traces            retained distributed traces (sampled +
//	                              anomalous); /debug/traces/{id} expands
//	                              one span tree
//
// Observability:
//
//	-slowlog-threshold 50ms       capture queries at/above 50ms wall time
//	-trace-sample-rate 0.01       head-sample this fraction of requests
//	                              into /debug/traces (anomalous requests
//	                              are always retained; negative = none)
//	-pprof-addr localhost:6060    serve net/http/pprof on a side listener
//	-log-json                     structured logs as JSON lines
//
// Resilience (see README "Operating under failure"):
//
//	-query-timeout 2s             per-query deadline (504 when exceeded)
//	-update-timeout 10s           per-update-batch deadline
//	-max-inflight-queries 64      admission limit before shedding with 429
//	-max-inflight-updates 16      same for update batches
//	-wal-policy fail-update       or degrade-to-volatile
//
// Example:
//
//	printf 't q\nv 0 1\nv 1 2\ne 0 1\n' | curl -s --data-binary @- \
//	    'localhost:8844/query?kind=sub'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on the side listener only (-pprof-addr)
	"os"
	"os/signal"
	"syscall"
	"time"

	"gcplus"
	"gcplus/internal/cache"
	"gcplus/internal/persist"
	"gcplus/internal/subiso"
)

func main() {
	var (
		addr      = flag.String("addr", ":8844", "listen address")
		shards    = flag.Int("shards", 4, "number of runtime shards")
		datafile  = flag.String("dataset", "", "initial dataset file (text codec); mutually exclusive with -synthetic")
		synthN    = flag.Int("synthetic", 0, "generate an AIDS-like synthetic dataset of this many graphs")
		seed      = flag.Int64("seed", 42, "synthetic dataset seed")
		method    = flag.String("method", "", "Method M verifier: VF2, VF2+ or GQL (empty = VF2+)")
		modelName = flag.String("model", "CON", "cache consistency model: CON or EVI")
		policy    = flag.String("policy", "HD", "cache replacement policy: HD, PIN, PINC, LRU or LFU")
		cacheCap  = flag.Int("cache", 100, "per-shard cache capacity")
		window    = flag.Int("window", 20, "per-shard admission window size")
		nocache   = flag.Bool("nocache", false, "disable GC+ caching (raw Method M baseline)")
		verifyPar = flag.Int("verify-parallelism", 0, "per-shard intra-query verification workers (0 = auto: GOMAXPROCS/shards, 1 = sequential)")
		repairPar = flag.Int("repair-parallelism", 0, "per-shard background cache-repair workers (0 = default of 1)")
		dataDir   = flag.String("data-dir", "", "durability directory: WAL + dataset snapshots for crash-safe restarts (empty = no persistence)")
		snapEvery = flag.Int("snapshot-every", 0, "update batches between automatic snapshots (0 = default; needs -data-dir)")
		nowal     = flag.Bool("nowal", false, "disable the write-ahead log, keeping snapshots only (a crash loses batches since the last snapshot)")
		slowThr   = flag.Duration("slowlog-threshold", 0, "capture queries at/above this wall time into GET /debug/slowlog (0 = off)")
		slowSize  = flag.Int("slowlog-size", 0, "slow-query ring capacity (0 = default of 128)")
		traceRate = flag.Float64("trace-sample-rate", 0, "fraction of requests head-sampled into GET /debug/traces (0 = default of 0.01, negative = none; anomalous requests are always retained)")
		traceSize = flag.Int("trace-store-size", 0, "retained-trace ring capacity (0 = default of 256)")
		readyMax  = flag.Int("ready-max-pending", 0, "readyz threshold: 503 while more invalidated pairs than this await repair (0 = default, negative = require empty backlog)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this side listener (e.g. localhost:6060; empty = off)")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of text")

		queryTimeout  = flag.Duration("query-timeout", 2*time.Second, "per-query deadline; exceeding it returns 504 (0 = no deadline)")
		updateTimeout = flag.Duration("update-timeout", 10*time.Second, "per-update-batch deadline; expiring before application returns 504 with nothing applied (0 = no deadline)")
		maxQueries    = flag.Int("max-inflight-queries", 0, "admitted concurrent queries before shedding with 429 (0 = default of 64, negative = unlimited)")
		maxUpdates    = flag.Int("max-inflight-updates", 0, "admitted concurrent update batches before shedding with 429 (0 = default of 16, negative = unlimited)")
		walPolicy     = flag.String("wal-policy", "fail-update", "WAL append-failure policy: fail-update (503 the batch) or degrade-to-volatile (ack and raise the volatile-WAL alarm)")
		transport     = flag.String("transport", "local", "router→shard transport: local (in-process) or loopback (each shard behind its own 127.0.0.1 TCP connection; the cluster seed)")
	)
	flag.Parse()

	logger := newLogger(*logJSON)

	haveState := *dataDir != "" && persist.HasState(*dataDir)
	initial, err := loadDataset(*datafile, *synthN, *seed, haveState)
	if err != nil {
		fatal(logger, "dataset load failed", err)
	}
	if haveState {
		// The shard partition is baked into the persisted state; adopt
		// its count so a bare `gcserve -data-dir DIR` restart just works.
		if n, ok := persist.StateShards(*dataDir); ok && n != *shards {
			logger.Warn("overriding -shards with persisted partition count",
				"data_dir", *dataDir, "persisted_shards", n, "flag_shards", *shards)
			*shards = n
		}
	}

	opts := gcplus.ServeOptions{Shards: *shards}
	opts.Method = *method
	opts.CacheSize = *cacheCap
	opts.WindowSize = *window
	opts.DisableCache = *nocache
	opts.VerifyParallelism = *verifyPar
	opts.RepairParallelism = *repairPar
	opts.DataDir = *dataDir
	opts.SnapshotEvery = *snapEvery
	opts.DisableWAL = *nowal
	opts.SlowLogThreshold = *slowThr
	opts.SlowLogSize = *slowSize
	opts.TraceSampleRate = *traceRate
	opts.TraceStoreSize = *traceSize
	opts.ReadyMaxPendingRepairs = *readyMax
	opts.QueryTimeout = *queryTimeout
	opts.UpdateTimeout = *updateTimeout
	opts.MaxInFlightQueries = *maxQueries
	opts.MaxInFlightUpdates = *maxUpdates
	opts.WALPolicy = *walPolicy
	opts.Transport = *transport
	opts.Logger = logger
	if opts.Model, err = cache.ParseModel(*modelName); err != nil {
		fatal(logger, "bad -model", err)
	}
	if opts.Policy, err = cache.ParsePolicy(*policy); err != nil {
		fatal(logger, "bad -policy", err)
	}

	srv, err := gcplus.NewServer(initial, opts)
	if err != nil {
		fatal(logger, "server construction failed", err)
	}

	// Repair only runs for CON caches; report the resolved state.
	repairOn := !*nocache && opts.Model == cache.ModelCON
	if graphs, epoch, ok := srv.Recovered(); ok {
		logger.Info("restarted from data directory; the cache re-warms", "data_dir", *dataDir, "live_graphs", graphs, "epoch", epoch)
	}
	st, err := srv.Stats()
	if err != nil {
		fatal(logger, "stats failed", err)
	}
	methodName := *method
	if methodName == "" {
		methodName = subiso.VF2Plus{}.Name()
	}
	logger.Info("serving",
		"addr", *addr, "graphs", st.LiveGraphs, "shards", srv.Shards(),
		"method", methodName, "model", *modelName, "policy", *policy,
		"cache", *cacheCap, "repair", repairOn,
		"durable", *dataDir != "",
		"wal_policy", *walPolicy, "transport", *transport,
		"query_timeout", queryTimeout.String(),
		"max_inflight_queries", *maxQueries,
		"slowlog_threshold", slowThr.String())

	// Listener timeouts: a slow or stalled client must never hold a
	// connection (and its admission slot) forever. The write timeout
	// tracks the configured request deadlines so a legitimately long
	// query is not cut off mid-response by the transport.
	writeTimeout := 30 * time.Second
	for _, d := range []time.Duration{*queryTimeout, *updateTimeout} {
		if d > 0 && d+5*time.Second > writeTimeout {
			writeTimeout = d + 5*time.Second
		}
	}

	// The pprof side listener serves http.DefaultServeMux (where the
	// net/http/pprof import registers) so the profiling surface never
	// leaks onto the public API mux. Profile captures stream for tens
	// of seconds, so its write timeout is generous rather than tight.
	if *pprofAddr != "" {
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           nil, // DefaultServeMux
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			logger.Info("pprof listener up", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
	}

	// Graceful shutdown: SIGINT/SIGTERM stop the listener, drain
	// in-flight requests, then Close flushes shard queues, the WAL and
	// a final snapshot before the process exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		srv.Close()
		fatal(logger, "listener failed", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down (signal received)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := srv.Close(); err != nil {
		// The daemon is down either way, but the final snapshot did not
		// land; exit non-zero so supervisors notice the degraded flush.
		fatal(logger, "final flush failed (previous snapshot + WAL remain)", err)
	}
	logger.Info("state flushed, bye")
}

// newLogger builds the process logger: text for humans by default,
// JSON lines under -log-json for log pipelines.
func newLogger(jsonOut bool) *slog.Logger {
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

func loadDataset(file string, synthN int, seed int64, haveState bool) ([]*gcplus.Graph, error) {
	switch {
	case file != "" && synthN > 0:
		return nil, fmt.Errorf("-dataset and -synthetic are mutually exclusive")
	case haveState:
		// Recovery replaces the initial dataset entirely; don't spend
		// boot time parsing or synthesizing graphs recovery will drop
		// (restart units routinely keep the first boot's dataset flags).
		return nil, nil
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return gcplus.ParseGraphs(f)
	case synthN > 0:
		return gcplus.GenerateAIDSLike(synthN, seed)
	}
	return nil, errors.New("provide -dataset FILE or -synthetic N (or -data-dir with existing state)")
}
