// Package cache implements GC+'s Cache Manager subsystem (§4–5 of the
// paper): the store of cached queries and their answers, the admission
// Window, the Statistics Manager feeding the replacement policies (PIN,
// PINC and the hybrid HD, plus LRU/LFU baselines), and — new in GC+ over
// the original GraphCache — the Cache Validator that keeps per-entry
// dataset-graph-validity indicators consistent with the dataset update
// log (Algorithm 2), under either of the two consistency models:
//
//   - ModelEVI evicts the entire cache and window whenever the dataset
//     changed (§5.1);
//   - ModelCON refreshes each cached query's CGvalid bitset from the Log
//     Analyzer's counters, preserving still-valid results (§5.2).
//
// Beyond the paper, the cache queues every validity bit the Validator
// clears for off-path repair (index.go), and memoizes the
// query-to-query containment relations among its entries (relations.go),
// so a repeated query replays its hits without sub-iso tests. The
// Validator itself is Algorithm 2's
// sweep over the entries, so admission, eviction and the iso-hit
// refresh do no per-graph work.
package cache

import (
	"fmt"

	"gcplus/internal/bitset"
	"gcplus/internal/feature"
	"gcplus/internal/graph"
)

// Kind distinguishes what relation a cached query's answer set records.
type Kind uint8

const (
	// KindSub marks a subgraph query: Answer = {G : q ⊆ G}.
	KindSub Kind = iota
	// KindSuper marks a supergraph query: Answer = {G : G ⊆ q}.
	KindSuper
)

// String returns "sub" or "super".
func (k Kind) String() string {
	if k == KindSuper {
		return "super"
	}
	return "sub"
}

// Entry is one cached query: the query graph, the snapshot of its answer
// set at execution time, and the validity indicator CGvalid telling which
// answer bits still reflect the current dataset.
type Entry struct {
	// ID is a cache-unique id (also the deterministic eviction tiebreak).
	ID int
	// Query is the cached query graph.
	Query *graph.Graph
	// Kind tells whether Answer records containment of the query in
	// dataset graphs (sub) or of dataset graphs in the query (super).
	Kind Kind
	// Fp is the query's containment-monotone fingerprint, used by the
	// GC+sub/GC+super processors to prefilter hit candidates.
	Fp *feature.Fingerprint
	// Answer is the query's answer set at execution time, indexed by
	// dataset graph id. It is never recomputed (the paper: "once a query
	// is executed, its answer set is finalized").
	Answer *bitset.Set
	// Valid is CGvalid: bit i set means the relation recorded by
	// Answer bit i still holds for the current dataset graph i.
	Valid *bitset.Set
	// Seq is the dataset log sequence number Valid reflects.
	Seq uint64

	// Statistics Manager fields.

	// R is the number of sub-iso tests this entry spared (PIN's score).
	R float64
	// CostEst is the estimated cost (seconds) of one spared sub-iso test
	// for this entry — the heuristic C of the PINC policy.
	CostEst float64
	// Hits counts how many queries this entry contributed to (LFU).
	Hits int64
	// LastUsed is the cache's logical clock at the entry's last
	// contribution (LRU).
	LastUsed int64

	// slot is the entry's index in the cache's slot table; the query
	// index addresses entries by slot so its bitsets stay dense under
	// eviction churn. Managed by Cache.assignSlot/releaseEntry.
	slot int
	// dead marks an evicted or purged entry so queued repair tasks that
	// still reference it are skipped instead of resurrecting its bits.
	dead bool
}

// NewEntry builds a cache entry for a query executed against the dataset
// version identified by seq, whose live ids are given. The entry starts
// fully valid on exactly the live graphs (its answer is a fresh fact about
// each of them) and invalid everywhere else.
func NewEntry(q *graph.Graph, kind Kind, answer, live *bitset.Set, seq uint64, costEst float64) *Entry {
	return &Entry{
		Query:   q,
		Kind:    kind,
		Fp:      feature.Of(q),
		Answer:  answer.Clone(),
		Valid:   live.Clone(),
		Seq:     seq,
		CostEst: costEst,
	}
}

// FullyValid reports whether the entry holds validity on every graph of
// the given live set — the precondition of both §6.3 optimal cases.
func (e *Entry) FullyValid(live *bitset.Set) bool {
	return live.IsSubsetOf(e.Valid)
}

// Resident reports whether the entry is still held by its cache, in the
// window or admitted: eviction and purge retire an entry for good, and
// the validator stops maintaining a retired entry's bitsets.
func (e *Entry) Resident() bool { return !e.dead }

// ValidAnswer returns CGvalid(e) ∩ Answer(e): the dataset graphs whose
// positive relation with the cached query is still guaranteed. The result
// is freshly allocated.
func (e *Entry) ValidAnswer() *bitset.Set {
	va := e.Valid.Clone()
	va.And(e.Answer)
	return va
}

// PossibleAnswer returns complement(CGvalid) ∪ Answer within the given
// live universe — formula (4)'s g″.Answer_super(g): every live graph that
// could possibly relate positively to a query containing e.Query.
func (e *Entry) PossibleAnswer(live *bitset.Set) *bitset.Set {
	pa := e.Valid.ComplementWithin(live)
	pa.Or(e.Answer)
	pa.And(live)
	return pa
}

// Credit records that this entry's cached result spared the given number
// of sub-iso tests for one query (Statistics Manager update backing the
// PIN/PINC scores), at logical time now.
func (e *Entry) Credit(testsSpared int, now int64) {
	e.R += float64(testsSpared)
	e.Hits++
	e.LastUsed = now
}

// String summarizes the entry for debugging.
func (e *Entry) String() string {
	return fmt.Sprintf("Entry(#%d %s q=%s |answer|=%d |valid|=%d R=%.0f)",
		e.ID, e.Kind, e.Query.Name(), e.Answer.Count(), e.Valid.Count(), e.R)
}
