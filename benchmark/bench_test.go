package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the whole of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestNamesMatchBenchmarkJSON pins spec.go to BENCHMARK.json: same
// workloads, same metrics, same units, all within the naming rules.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var got, want []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name+"|"+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+"|"+w.why)
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q breaks the naming rules", w.name)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads differ:\n BENCHMARK.json %q\n spec.go        %q", got, want)
	}

	got, want = nil, nil
	for _, m := range bj.EndToEnd {
		got = append(got, m.Name+"|"+m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		want = append(want, m.name+"|"+m.unit)
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
			t.Errorf("metric %q (%q) breaks the naming rules", m.name, m.unit)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics differ:\n BENCHMARK.json %q\n spec.go        %q", got, want)
	}

	got, want = nil, nil
	for _, m := range bj.PerLayer {
		got = append(got, m.Name+"|"+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+"|"+m.unit)
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
			t.Errorf("metric %q (%q) breaks the naming rules", m.name, m.unit)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("per-layer metrics differ:\n BENCHMARK.json %q\n spec.go        %q", got, want)
	}
}

func tinyConfig(t *testing.T, name string, seed int64, traced bool) runConfig {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sc := scales["tiny"]
	return runConfig{w: sc.apply(w), sc: sc, seed: seed, seconds: 1, trace: traced, outDir: t.TempDir(), log: io.Discard}
}

// TestTinyWorkloads runs every workload at tiny scale, twice untraced and
// twice traced, and checks what must hold at any scale: nothing fails, every
// declared metric is emitted (and the end-to-end ones are never 0), and an
// equal seed reproduces the stream digest, the answer digest and the
// single-client counts exactly.
func TestTinyWorkloads(t *testing.T) {
	fnv := map[string]string{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(tinyConfig(t, w.name, 7, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 || rep.Audited == 0 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d audited=%d problems=%q",
					rep.Correct, rep.Failed, rep.Attempted, rep.Audited, rep.Problems)
			}
			for _, m := range endToEnd {
				if v, ok := rep.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.name, v, m.unit)
				}
			}
			fnv[w.name] = rep.AnswersFNV
			again, err := runWorkload(tinyConfig(t, w.name, 7, false))
			if err != nil {
				t.Fatal(err)
			}
			if again.AnswersFNV != rep.AnswersFNV || strings.HasPrefix(rep.AnswersFNV, "incomplete") {
				t.Errorf("answers_fnv not reproducible or incomplete: %q vs %q", rep.AnswersFNV, again.AnswersFNV)
			}

			tracedCfg := tinyConfig(t, w.name, 7, true)
			a, err := runWorkload(tracedCfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(tinyConfig(t, w.name, 7, true))
			if err != nil {
				t.Fatal(err)
			}
			if !a.Correct || !b.Correct {
				t.Fatalf("traced runs: %q / %q", a.Problems, b.Problems)
			}
			for _, m := range perLayer {
				if v, ok := a.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("per-layer metric %s missing or in the wrong unit: %+v", m.name, v)
				}
			}
			for name := range a.Metrics {
				if unitOf(name) == "" {
					t.Errorf("run emitted metric %q, which spec.go does not declare", name)
				}
			}
			if a.Header.StreamDigest != b.Header.StreamDigest || a.Header.StreamDigest != rep.Header.StreamDigest {
				t.Errorf("stream digest not reproducible: %s, %s, %s", rep.Header.StreamDigest, a.Header.StreamDigest, b.Header.StreamDigest)
			}
			for _, name := range []string{"core.tests_per_query", "core.hit_rate", "subiso.tests"} {
				va, ok := a.Counts[name]
				if vb := b.Counts[name]; !ok || va != vb {
					t.Errorf("count %s not reproducible: %v vs %v", name, va, vb)
				}
			}
			if _, err := os.Stat(filepath.Join(tracedCfg.outDir, w.name+".spans.jsonl")); err != nil {
				t.Errorf("traced run left no span file: %v", err)
			}
		})
	}
	if fnv["warm_repeat"] == "" || fnv["warm_repeat"] != fnv["wire_repeat"] {
		t.Errorf("warm_repeat and wire_repeat answer the same stream: answers_fnv %q vs %q", fnv["warm_repeat"], fnv["wire_repeat"])
	}
}

// TestSeedChangesStream: a different seed must give different inputs.
func TestSeedChangesStream(t *testing.T) {
	for _, w := range workloads {
		c := tinyConfig(t, w.name, 1, false)
		a, err := generateInputs(c.w, c.sc, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generateInputs(c.w, c.sc, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest == b.digest {
			t.Errorf("%s: seeds 1 and 2 give the same stream digest %016x", w.name, a.digest)
		}
	}
}

// TestAuditCatchesCorruption: the oracle must object to a wrong id, a
// missing id, an answer stamped with the wrong epoch, and a hole in the op
// log — and to nothing in the true answers.
func TestAuditCatchesCorruption(t *testing.T) {
	c := tinyConfig(t, "churn_durable", 3, false)
	in, err := generateInputs(c.w, c.sc, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth from the oracle itself, with two batches applied.
	o := newOracle(in.dataset)
	var acked []ackedBatch
	var records []auditRecord
	for k := 0; k < 2; k++ {
		a, err := o.Update(0, &in.batches[k], nil)
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, ackedBatch{epoch: a.epoch, b: &in.batches[k], ids: a.ids})
		for slot := 0; slot < 10; slot++ {
			r := in.req(k*10 + slot)
			ids, _ := o.answer(r)
			records = append(records, auditRecord{slot: k*10 + slot, req: r, epoch: o.epoch, ids: ids})
		}
	}
	clone := func() []auditRecord {
		out := make([]auditRecord, len(records))
		for i, r := range records {
			out[i] = r
			out[i].ids = slices.Clone(r.ids)
		}
		return out
	}
	if res := auditAnswers(in, clone(), slices.Clone(acked), 100); res.mismatches != 0 || res.checked != len(records) {
		t.Fatalf("true answers: %d mismatches over %d checked: %q", res.mismatches, res.checked, res.messages)
	}

	// Pick a record with a non-empty answer to corrupt.
	victim := slices.IndexFunc(records, func(r auditRecord) bool { return len(r.ids) > 0 })
	if victim < 0 {
		t.Fatal("no sampled answer is non-empty")
	}
	wrongID := clone()
	wrongID[victim].ids[0] = 1 << 30
	missingID := clone()
	missingID[victim].ids = missingID[victim].ids[1:]
	for name, recs := range map[string][]auditRecord{"wrong id": wrongID, "missing id": missingID} {
		if res := auditAnswers(in, recs, slices.Clone(acked), 100); res.mismatches != 1 {
			t.Errorf("%s: %d mismatches, want 1 (%q)", name, res.mismatches, res.messages)
		}
	}
	future := clone()
	future[0].epoch = 99
	if res := auditAnswers(in, future, slices.Clone(acked), 100); res.mismatches == 0 {
		t.Error("an answer from an epoch nobody acknowledged passed the audit")
	}
	if res := auditAnswers(in, clone(), acked[1:], 100); res.mismatches == 0 {
		t.Error("an op log with a missing epoch passed the audit")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7}, 3, 10},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 11, 10}, 3, 9},
	} {
		q1, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestResultLine: the last line has exactly the contract's keys, and the
// metric set follows --trace.
func TestResultLine(t *testing.T) {
	rep := &report{Correct: true, Attempted: 3, Metrics: map[string]metric{"qps": {Value: 1.5, Unit: "1/s"}}}
	for traced, list := range map[bool][]metricSpec{false: endToEnd, true: perLayer} {
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(resultLine(rep, traced)), &line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(list) {
			t.Fatalf("traced=%v: malformed result line %s", traced, resultLine(rep, traced))
		}
		for _, m := range list {
			if got, ok := line.Metrics[m.name]; !ok || got.Value == nil || got.Unit != m.unit {
				t.Errorf("traced=%v: metric %s missing or wrong: %+v", traced, m.name, got)
			}
		}
	}
}

// TestWindowStats: samples land in the window their completion falls in,
// whichever client recorded them, and windows nobody completed in are empty.
func TestWindowStats(t *testing.T) {
	a := &clientLog{queryNS: []int64{10, 20, 30}, windowEnd: []int{2}} // windows 0, 0, 1
	b := &clientLog{queryNS: []int64{40, 50}, windowEnd: []int{1, 1}}  // windows 0, 2
	got := windowStats([]*clientLog{a, b}, 3*window+window/2)
	want := []windowStat{{count: 3, p50: 20, p99: 40}, {count: 1, p50: 30, p99: 30}, {count: 1, p50: 50, p99: 50}}
	if !slices.Equal(got, want) {
		t.Errorf("windowStats = %+v, want %+v", got, want)
	}
}
