// Command gcbench regenerates the evaluation of "Ensuring Consistency in
// Graph Cache for Graph-Pattern Queries" (EDBT 2017): Figures 4–6, the
// §7.2 insight statistics, and the ablation studies listed in docs/paper.md.
//
// Usage:
//
//	gcbench -figure all                 # Figures 4, 5 and 6 at repro scale
//	gcbench -figure 4 -scale smoke      # quick pass
//	gcbench -insights                   # §7.2 exact/sub/super hit stats
//	gcbench -ablation all               # policies, cache sizes, validity, churn
//	gcbench -figure all -scale paper    # full 40k × 10k run (hours)
//
// Serving-path numbers (throughput, latency, recovery, per-layer cost)
// come from the repository's one perf ledger: bash benchmark/run.sh (see
// benchmark/README.md).
//
// Absolute times depend on the host; the speedup shapes are what
// reproduce the paper (see docs/paper.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gcplus/internal/bench"
)

func main() {
	var (
		scaleName = flag.String("scale", "repro", "experiment scale: smoke, repro or paper")
		figure    = flag.String("figure", "", "figure to regenerate: 4, 5, 6 or all")
		insights  = flag.Bool("insights", false, "print the §7.2 insight statistics")
		ablation  = flag.String("ablation", "", "ablation study: policy, cachesize, validity, changerate or all")
		methods   = flag.String("methods", "VF2,VF2+,GQL", "comma-separated Method M list")
		workloads = flag.String("workloads", "", "comma-separated workload list (default all six)")
		seed      = flag.Int64("seed", 42, "experiment seed")
		verbose   = flag.Bool("v", false, "print per-run progress")
	)
	flag.Parse()
	if *figure == "" && !*insights && *ablation == "" {
		*figure = "all"
	}

	sc, err := bench.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	progress := bench.Progress(nil)
	if *verbose {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	methodList := splitList(*methods)
	var specs []bench.WorkloadSpec
	for _, name := range splitList(*workloads) {
		spec, err := bench.SpecByName(name)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, spec)
	}

	if *figure != "" {
		runFigures(*figure, sc, *seed, methodList, specs, progress)
	}
	if *insights {
		rows, err := bench.RunInsights(sc, *seed, methodList[0], progress)
		if err != nil {
			fatal(err)
		}
		bench.PrintInsights(os.Stdout, rows)
	}
	if *ablation != "" {
		runAblations(*ablation, sc, *seed, methodList[0], progress)
	}
}

func runFigures(figure string, sc bench.Scale, seed int64, methods []string, specs []bench.WorkloadSpec, progress bench.Progress) {
	switch figure {
	case "4", "5", "6", "all":
	default:
		fatal(fmt.Errorf("unknown figure %q (want 4, 5, 6 or all)", figure))
	}
	// Figures 5 and 6 need only one method; Figure 4 needs all three.
	if figure == "5" || figure == "6" {
		methods = methods[:1]
	}
	m, err := bench.RunMatrix(sc, seed, methods, specs, progress)
	if err != nil {
		fatal(err)
	}
	if err := m.VerifyIndependence(); err != nil {
		fmt.Fprintf(os.Stderr, "WARNING: %v\n", err)
	}
	if figure == "4" || figure == "all" {
		m.Figure4(os.Stdout)
		fmt.Println()
	}
	if figure == "5" || figure == "all" {
		m.Figure5(os.Stdout)
		fmt.Println()
	}
	if figure == "6" || figure == "all" {
		m.Figure6(os.Stdout)
		fmt.Println()
	}
}

func runAblations(which string, sc bench.Scale, seed int64, method string, progress bench.Progress) {
	spec, _ := bench.SpecByName("ZZ")
	type study struct {
		name string
		run  func() ([]bench.AblationRow, error)
	}
	studies := []study{
		{"Ablation: replacement policies (CON, ZZ)", func() ([]bench.AblationRow, error) {
			return bench.RunPolicyAblation(sc, seed, method, spec, progress)
		}},
		{"Ablation: cache capacity (CON, ZZ)", func() ([]bench.AblationRow, error) {
			return bench.RunCacheSizeAblation(sc, seed, method, spec, nil, progress)
		}},
		{"Ablation: Algorithm 2 validity optimizations (CON, ZZ)", func() ([]bench.AblationRow, error) {
			return bench.RunValidityAblation(sc, seed, method, spec, progress)
		}},
		{"Ablation: dataset change rate (ZZ)", func() ([]bench.AblationRow, error) {
			return bench.RunChangeRateAblation(sc, seed, method, spec, progress)
		}},
	}
	selected := map[string]int{"policy": 0, "cachesize": 1, "validity": 2, "changerate": 3}
	if which != "all" {
		idx, ok := selected[which]
		if !ok {
			fatal(fmt.Errorf("unknown ablation %q", which))
		}
		studies = studies[idx : idx+1]
	}
	for _, s := range studies {
		rows, err := s.run()
		if err != nil {
			fatal(err)
		}
		bench.PrintAblation(os.Stdout, s.name, rows)
		fmt.Println()
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcbench:", err)
	os.Exit(1)
}
