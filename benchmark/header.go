package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"gcplus"
)

// header records the conditions a run's numbers were taken under, so that a
// number is never read without them.
type header struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GitSHA     string `json:"git_sha"`
	Scale      string `json:"scale"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Clients    int    `json:"clients"`
	// Slots is the generated stream length, Warmup the leading slots run
	// before timing; how many slots a run measured is qps's sample count.
	Slots        int    `json:"stream_slots"`
	Warmup       int    `json:"warmup_slots"`
	StreamDigest string `json:"stream_digest"`
	// FlushPolicy states what an acknowledged update has survived.
	FlushPolicy string `json:"flush_policy"`
	// Server is the option set of the system under test: what the benchmark
	// passed (everything else is the zero value of gcplus.ServeOptions) and
	// what the running server reports having resolved it to.
	Server map[string]any `json:"server_options"`
}

func newHeader(c runConfig) header {
	h := header{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GitSHA: gitSHA(), Scale: c.sc.name, Seed: c.seed, Seconds: c.seconds, Traced: c.trace, Clients: clients,
		FlushPolicy: "no data directory: updates live in memory only",
	}
	if c.w.durable {
		h.FlushPolicy = "WAL fsync before every batch acknowledgement (NoSync=false, the default); automatic snapshots at the default interval"
	}
	return h
}

// gitSHA is the commit the binary was built from, when the build could see
// one (go build stamps it inside a git work tree; an exported tree has none).
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// resolvedOptions describes the live server's configuration from its own
// Stats, so a changed default shows in the header and not only in the numbers.
func resolvedOptions(w workloadSpec, srv *gcplus.Server) map[string]any {
	boundary := "facade"
	if w.http {
		boundary = "http"
	}
	m := map[string]any{"passed_shards": shards, "passed_transport": w.transport, "passed_data_dir": w.durable, "boundary": boundary}
	st, err := srv.Stats()
	if err != nil {
		m["stats_error"] = err.Error()
		return m
	}
	m["shards"], m["transport"] = st.Shards, st.Transport
	m["persist_enabled"], m["wal_policy"] = st.PersistEnabled, st.WALPolicy
	if len(st.PerShard) > 0 {
		c := st.PerShard[0].Cache
		m["cache_capacity"], m["cache_model"], m["cache_policy"] = c.Capacity, c.Model, c.Policy
	}
	return m
}
