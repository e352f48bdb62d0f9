package main

// Same-epoch oracle audit: sampled answers are re-answered by cache-bypassed
// Method M (rung_subiso.go) against the benchmark's own copy of the dataset,
// advanced through the acknowledged op log to the epoch each answer reported.

import (
	"fmt"
	"slices"
	"sort"
)

type auditResult struct {
	checked    int
	mismatches int
	messages   []string // first few mismatches, with slot and epoch
}

func (a *auditResult) mismatch(format string, args ...any) {
	a.mismatches++
	if len(a.messages) < 5 {
		a.messages = append(a.messages, fmt.Sprintf(format, args...))
	}
}

// auditAnswers checks at most limit of records (an even subsample when there
// are more). acked need not be sorted; its epochs must be exactly 1..n.
func auditAnswers(in *inputs, records []auditRecord, acked []ackedBatch, limit int) auditResult {
	var res auditResult
	sort.Slice(acked, func(i, j int) bool { return acked[i].epoch < acked[j].epoch })
	for i, a := range acked {
		if a.epoch != uint64(i+1) {
			res.mismatch("op log: entry %d carries epoch %d; acknowledged epochs must be 1..%d without gaps", i, a.epoch, len(acked))
			return res
		}
	}
	sort.Slice(records, func(i, j int) bool {
		if records[i].epoch != records[j].epoch {
			return records[i].epoch < records[j].epoch
		}
		return records[i].slot < records[j].slot
	})
	if len(records) > limit {
		kept := make([]auditRecord, limit)
		for i := range kept {
			kept[i] = records[i*len(records)/limit]
		}
		records = kept
	}
	o := newOracle(in.dataset)
	// The repeat streams sample the same few patterns hundreds of times;
	// one oracle scan per (pattern, epoch) is enough.
	memo := map[*request][]int{}
	for _, rec := range records {
		if rec.epoch > uint64(len(acked)) {
			res.mismatch("slot %d: answer reports epoch %d, only %d batches were acknowledged", rec.slot, rec.epoch, len(acked))
			continue
		}
		for o.epoch < rec.epoch {
			a := acked[o.epoch]
			if err := o.apply(a.b, a.ids); err != nil {
				res.mismatch("op log: epoch %d does not replay: %v", a.epoch, err)
				return res
			}
			clear(memo)
		}
		want, ok := memo[rec.req]
		if !ok {
			want, _ = o.answer(rec.req)
			memo[rec.req] = want
		}
		res.checked++
		if !slices.Equal(want, rec.ids) {
			res.mismatch("slot %d (%s query) at epoch %d: system answered %d ids, oracle %d; first difference %s",
				rec.slot, rec.req.kindName(), rec.epoch, len(rec.ids), len(want), firstDiff(rec.ids, want))
		}
	}
	return res
}

func firstDiff(got, want []int) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("missing id %d", want[i])
		case i >= len(want):
			return fmt.Sprintf("extra id %d", got[i])
		case got[i] != want[i]:
			return fmt.Sprintf("position %d: got %d, want %d", i, got[i], want[i])
		}
	}
	return "none"
}
