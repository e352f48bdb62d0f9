package bench

import (
	"fmt"
	"io"

	"gcplus/internal/cache"
)

// This file implements the ablation studies docs/paper.md lists beyond
// the paper's figures: replacement policies, cache sizes, Algorithm 2's
// validity optimizations, and dataset change rates. All are CON-centric,
// since CON is the paper's headline contribution.

// AblationRow is one (variant, measurement) pair.
type AblationRow struct {
	Variant   string
	MeanTime  float64 // seconds
	MeanTests float64
	Speedup   float64 // vs the study's baseline (raw M where applicable)
}

// RunPolicyAblation sweeps the replacement policies under CON for the
// given workload, reporting query-time speedup over raw Method M. The
// paper argues HD always matches or beats PIN/PINC (§7.1).
func RunPolicyAblation(sc Scale, seed int64, method string, spec WorkloadSpec, progress Progress) ([]AblationRow, error) {
	if progress == nil {
		progress = nop
	}
	base, err := Run(RunConfig{Scale: sc, Workload: spec, Method: method, System: SystemM, Seed: seed})
	if err != nil {
		return nil, err
	}
	bt := base.Metrics.QueryTime.Mean()
	var rows []AblationRow
	for _, p := range []cache.Policy{cache.PolicyHD, cache.PolicyPIN, cache.PolicyPINC, cache.PolicyLRU, cache.PolicyLFU} {
		progress("policy %-5s ...", p)
		res, err := Run(RunConfig{Scale: sc, Workload: spec, Method: method, System: SystemCON, Policy: p, Seed: seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant:   string(p),
			MeanTime:  res.Metrics.QueryTime.Mean(),
			MeanTests: res.Metrics.MeanSubIsoTests(),
			Speedup:   speedup(bt, res.Metrics.QueryTime.Mean()),
		})
	}
	return rows, nil
}

// RunCacheSizeAblation sweeps the cache capacity under CON (the paper
// fixes 100 and calls it "meagre"; the sweep shows the benefit curve).
func RunCacheSizeAblation(sc Scale, seed int64, method string, spec WorkloadSpec, sizes []int, progress Progress) ([]AblationRow, error) {
	if progress == nil {
		progress = nop
	}
	if len(sizes) == 0 {
		sizes = []int{25, 50, 100, 200}
	}
	base, err := Run(RunConfig{Scale: sc, Workload: spec, Method: method, System: SystemM, Seed: seed})
	if err != nil {
		return nil, err
	}
	bt := base.Metrics.QueryTime.Mean()
	var rows []AblationRow
	for _, size := range sizes {
		progress("cache size %4d ...", size)
		res, err := Run(RunConfig{Scale: sc, Workload: spec, Method: method, System: SystemCON, CacheCapacity: size, Seed: seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant:   fmt.Sprintf("cap=%d", size),
			MeanTime:  res.Metrics.QueryTime.Mean(),
			MeanTests: res.Metrics.MeanSubIsoTests(),
			Speedup:   speedup(bt, res.Metrics.QueryTime.Mean()),
		})
	}
	return rows, nil
}

// RunValidityAblation compares full Algorithm 2 against the strict
// variant that invalidates every touched bit, quantifying the UA/UR-
// exclusive survival rules' contribution (fewer valid bits ⇒ fewer spared
// tests; correctness is unaffected, which the core tests assert).
func RunValidityAblation(sc Scale, seed int64, method string, spec WorkloadSpec, progress Progress) ([]AblationRow, error) {
	if progress == nil {
		progress = nop
	}
	base, err := Run(RunConfig{Scale: sc, Workload: spec, Method: method, System: SystemM, Seed: seed})
	if err != nil {
		return nil, err
	}
	bt := base.Metrics.QueryTime.Mean()
	var rows []AblationRow
	for _, strict := range []bool{false, true} {
		name := "Algorithm 2"
		if strict {
			name = "strict (no UA/UR rules)"
		}
		progress("validity %-24s ...", name)
		res, err := Run(RunConfig{Scale: sc, Workload: spec, Method: method, System: SystemCON, StrictInvalidation: strict, Seed: seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant:   name,
			MeanTime:  res.Metrics.QueryTime.Mean(),
			MeanTests: res.Metrics.MeanSubIsoTests(),
			Speedup:   speedup(bt, res.Metrics.QueryTime.Mean()),
		})
	}
	return rows, nil
}

// RunChangeRateAblation sweeps the dataset change rate: a static dataset
// (EVI ≡ CON ≡ the original GraphCache), the paper's density, and a 4×
// churn, showing EVI's degradation as changes become frequent.
func RunChangeRateAblation(sc Scale, seed int64, method string, spec WorkloadSpec, progress Progress) ([]AblationRow, error) {
	if progress == nil {
		progress = nop
	}
	type variant struct {
		name    string
		factor  float64
		none    bool
		systems []System
	}
	variants := []variant{
		{name: "static", none: true},
		{name: "1x (paper)", factor: 1},
		{name: "4x churn", factor: 4},
	}
	var rows []AblationRow
	for _, v := range variants {
		base, err := Run(RunConfig{Scale: sc, Workload: spec, Method: method, System: SystemM,
			ChangeOpsFactor: v.factor, NoChanges: v.none, Seed: seed})
		if err != nil {
			return nil, err
		}
		bt := base.Metrics.QueryTime.Mean()
		for _, sys := range []System{SystemEVI, SystemCON} {
			progress("change rate %-10s %s ...", v.name, sys)
			res, err := Run(RunConfig{Scale: sc, Workload: spec, Method: method, System: sys,
				ChangeOpsFactor: v.factor, NoChanges: v.none, Seed: seed})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Variant:   fmt.Sprintf("%s/%s", v.name, sys),
				MeanTime:  res.Metrics.QueryTime.Mean(),
				MeanTests: res.Metrics.MeanSubIsoTests(),
				Speedup:   speedup(bt, res.Metrics.QueryTime.Mean()),
			})
		}
	}
	return rows, nil
}

// PrintAblation renders an ablation table.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-26s %14s %12s %10s\n", "Variant", "QueryTime(ms)", "Tests/query", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %14.3f %12.1f %9.2fx\n", r.Variant, r.MeanTime*1000, r.MeanTests, r.Speedup)
	}
}
