package main

// Sets of runs: --workload all [--repeat N] produces one, --compare judges
// two against the bounds fixed in BENCHMARK.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runSet is the file --workload all writes: every run's full report.
type runSet struct {
	Runs []*report `json:"runs"`
}

// runSets runs `repeat` sets on seeds seed, seed+1, …: per set every
// workload untraced, and in the first set every workload traced as well.
// Each run is a fresh child process invoked exactly as the single-run form,
// so process-wide numbers (peak RSS, GC state) are a run's own.
func runSets(seed int64, seconds, repeat int, scaleName, outDir, path string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set runSet
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				if traced && r > 0 {
					continue
				}
				trace := "0"
				if traced {
					trace = "1"
				}
				cmd := exec.Command(self,
					"--workload", w.name, "--seed", strconv.FormatInt(seed+int64(r), 10),
					"--seconds", strconv.Itoa(seconds), "--trace", trace,
					"--scale", scaleName, "--outdir", outDir)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (set %d, traced %v): %w", w.name, r, traced, err)
				}
				rep, err := readReport(filepath.Join(outDir, w.name+".json"))
				if err != nil {
					return err
				}
				set.Runs = append(set.Runs, rep)
			}
		}
	}
	if err := writeJSON(path, &set); err != nil {
		return err
	}
	fmt.Printf("\n== %d set(s), seeds %d..%d, written to %s ==\n", repeat, seed, seed+int64(repeat)-1, path)
	printSetSummary(os.Stdout, &set)
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &runSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// values collects one metric of one workload over a set's runs of one kind.
func (s *runSet) values(workload, name string, traced bool) []float64 {
	var v []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Header.Traced == traced {
			if m, ok := r.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

func (s *runSet) failed(workload string) (failed, attempted int) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / med
}

func printSetSummary(w io.Writer, set *runSet) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%s\n", wl.name)
		fmt.Fprintf(w, "  %-34s %14s %14s %14s %8s %4s\n", "metric", "median", "q1", "q3", "spread", "n")
		for _, list := range []struct {
			specs  []metricSpec
			traced bool
		}{{endToEnd, false}, {perLayer, true}} {
			for _, m := range list.specs {
				v := set.values(wl.name, m.name, list.traced)
				if len(v) == 0 {
					continue
				}
				q1, q3 := quartiles(v)
				fmt.Fprintf(w, "  %-34s %14.4f %14.4f %14.4f %7.1f%% %4d  %s\n", m.name, median(v), q1, q3, 100*spread(v), len(v), m.unit)
			}
		}
		failed, attempted := set.failed(wl.name)
		fmt.Fprintf(w, "  failed_share %.6f (%d of %d)\n", float64(failed)/float64(max(1, attempted)), failed, attempted)
	}
}

// benchmarkFile is the part of BENCHMARK.json --compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets prints one row per (end-to-end metric, workload): better,
// within, worse, or unresolved when either side's spread is wider than the
// bound. Every ratio is printed with its base.
func compareSets(w io.Writer, pathA, pathB string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "base %s, candidate %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %-6s %9s %8s %8s %7s  %s\n",
		"workload", "metric", "base", "candidate", "unit", "cand/base", "spread_a", "spread_b", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a.values(wl.name, m.Name, false), b.values(wl.name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			worseBy := (mb - ma) / ma // share of the base by which the candidate is worse
			if m.Better == "higher" {
				worseBy = (ma - mb) / ma
			}
			verdict := "within"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worseBy > m.Bound:
				verdict = "worse"
			case -worseBy > max(sa, sb) && -worseBy > 0:
				verdict = "better"
			}
			counts[verdict]++
			fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f %-6s %9.4f %7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.name, m.Name, ma, mb, m.Unit, mb/ma, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		fa, na := a.failed(wl.name)
		fb, nb := b.failed(wl.name)
		verdict := "within"
		if float64(fb)/float64(max(1, nb)) > float64(fa)/float64(max(1, na)) {
			verdict = "worse" // any increase in failures is a regression
		}
		counts[verdict]++
		fmt.Fprintf(w, "%-14s %-16s %12d %12d %-6s  (of %d and %d attempted)  %s\n", wl.name, "failed", fa, fb, "count", na, nb, verdict)
		compareExact(w, wl.name, a, b)
	}
	fmt.Fprintf(w, "\nbetter %d, within %d, worse %d, unresolved %d\n", counts["better"], counts["within"], counts["worse"], counts["unresolved"])
	return nil
}

// compareExact compares what must repeat exactly between runs of one seed —
// the answer digest and the single-client counts — over the seeds both sets
// ran, one row per item.
func compareExact(w io.Writer, workload string, a, b *runSet) {
	type key struct {
		seed   int64
		traced bool
	}
	base := map[key]*report{}
	for _, r := range a.Runs {
		if r.Workload == workload {
			base[key{r.Header.Seed, r.Header.Traced}] = r
		}
	}
	items := []string{"answers_fnv", "core.tests_per_query", "core.hit_rate", "subiso.tests"}
	equal, differ := map[string]int{}, map[string]int{}
	for _, r := range b.Runs {
		o, ok := base[key{r.Header.Seed, r.Header.Traced}]
		if r.Workload != workload || !ok {
			continue
		}
		for _, item := range items {
			same := o.Counts[item] == r.Counts[item]
			if item == "answers_fnv" {
				if r.Header.Traced || r.AnswersFNV == "" {
					continue
				}
				same = o.AnswersFNV == r.AnswersFNV
			} else if _, ok := r.Counts[item]; !ok {
				continue
			}
			if same {
				equal[item]++
			} else {
				differ[item]++
			}
		}
	}
	for _, item := range items {
		if n := equal[item] + differ[item]; n > 0 {
			verdict := "equal"
			if differ[item] > 0 {
				verdict = "DIFFERENT"
			}
			fmt.Fprintf(w, "%-14s %-22s %d of %d same-seed runs equal  %s\n", workload, item, equal[item], n, verdict)
		}
	}
}
