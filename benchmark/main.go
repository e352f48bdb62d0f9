// Command benchmark is the repository's one performance ledger: four long
// workloads, eight end-to-end metrics and an outside-in layer ladder. See
// README.md in this directory.
//
//	bash benchmark/run.sh --workload warm_repeat --seed 42 --seconds 18 --trace 0
//	bash benchmark/run.sh --workload all --seed 42 [--repeat N] [--out set.json]
//	bash benchmark/run.sh --compare a.json b.json
//
// The first form is one run; its last line of output is one JSON object
// {correct, attempted, failed, metrics}. The second runs every workload —
// each run in a fresh child process, exactly as the first form — and the
// third judges two sets against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or \"all\"")
		seed     = flag.Int64("seed", 42, "input seed: equal seeds give equal inputs")
		seconds  = flag.Int("seconds", 18, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: run the layer ladder and report per-layer metrics instead of end-to-end ones")
		scaleArg = flag.String("scale", "full", "input scale: full or tiny")
		repeat   = flag.Int("repeat", 1, "with --workload all: number of sets, on seeds seed, seed+1, …")
		out      = flag.String("out", "", "with --workload all: file to write the set to (default <outdir>/set.json)")
		outDir   = flag.String("outdir", "benchmark/out", "directory for reports, span files and scratch data")
		compare  = flag.Bool("compare", false, "compare two set files given as arguments against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare wants two set files"))
		}
		if err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	case *workload == "all":
		path := *out
		if path == "" {
			path = filepath.Join(*outDir, "set.json")
		}
		if err := runSets(*seed, *seconds, *repeat, *scaleArg, *outDir, path); err != nil {
			fatal(err)
		}
	default:
		w, ok := workloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q; want one of %s or all", *workload, workloadNames()))
		}
		sc, ok := scales[*scaleArg]
		if !ok {
			fatal(fmt.Errorf("unknown scale %q", *scaleArg))
		}
		if *seconds < 1 {
			fatal(fmt.Errorf("--seconds must be at least 1"))
		}
		c := runConfig{w: sc.apply(w), sc: sc, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir, log: os.Stdout}
		rep, err := runWorkload(c)
		if err != nil {
			fatal(err)
		}
		printReport(os.Stdout, rep)
		if err := writeJSON(filepath.Join(*outDir, w.name+".json"), rep); err != nil {
			fatal(err)
		}
		fmt.Println(resultLine(rep, c.trace))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// resultLine is the run's last line of output: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func resultLine(rep *report, traced bool) string {
	list := endToEnd
	if traced {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		metrics[m.name] = value{Value: rep.Metrics[m.name].Value, Unit: m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain data
	}
	return string(line)
}

// printReport prints every metric by name with its unit and sample count.
func printReport(w io.Writer, rep *report) {
	h := rep.Header
	fmt.Fprintf(w, "\n== %s  seed %d  %d s  scale %s  traced %v ==\n", rep.Workload, h.Seed, h.Seconds, h.Scale, h.Traced)
	fmt.Fprintf(w, "%s\n", rep.Why)
	fmt.Fprintf(w, "go %s  GOMAXPROCS %d  nproc %d  git %s\n", h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.GitSHA)
	fmt.Fprintf(w, "stream %d slots (digest %s), warm-up %d slots, %d clients\n", h.Slots, h.StreamDigest, h.Warmup, h.Clients)
	fmt.Fprintf(w, "flush policy: %s\n", h.FlushPolicy)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return metricRank(names[i]) < metricRank(names[j]) })
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, "  n=%d", m.Samples)
		}
		if m.Beyond > 0 {
			fmt.Fprintf(w, "  beyond=%d", m.Beyond)
		}
		fmt.Fprintln(w)
	}
	if rep.AnswersFNV != "" {
		fmt.Fprintf(w, "  answers_fnv %s\n", rep.AnswersFNV)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d (shed %d, deadline exceeded %d)  audited %d  failed_share %.6f\n",
		rep.Attempted, rep.Failed, rep.Shed, rep.DeadlineExceeded, rep.Audited, float64(rep.Failed)/float64(max(1, rep.Attempted)))
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

// metricRank orders metrics as spec.go lists them.
func metricRank(name string) int {
	for i, m := range endToEnd {
		if m.name == name {
			return i
		}
	}
	for i, m := range perLayer {
		if m.name == name {
			return len(endToEnd) + i
		}
	}
	return len(endToEnd) + len(perLayer)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
