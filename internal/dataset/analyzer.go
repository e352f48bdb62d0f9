package dataset

// This file implements the Log Analyzer component of the Dataset Manager
// subsystem — Algorithm 1 of the paper ("Analyzing Log for the CON
// Cache"). The analyzer categorizes the not-yet-reflected log records
// into three per-graph counters:
//
//	CT — total operations touching the graph,
//	CA — UA (edge addition) operations only,
//	CR — UR (edge removal) operations only.
//
// The Cache Validator (Algorithm 2, internal/cache) consumes the counter
// container: a graph whose operations are exclusively UA (CT == CA)
// preserves positive cached answers, one whose operations are exclusively
// UR (CT == CR) preserves negative ones; anything else invalidates.

// Counters is the counter container C of Algorithm 1.
type Counters struct {
	// Total is CT: graph id -> number of operations of any type.
	Total map[int]int
	// UA is CA: graph id -> number of edge-addition updates.
	UA map[int]int
	// UR is CR: graph id -> number of edge-removal updates.
	UR map[int]int
	// Records is the number of log records folded in.
	Records int
}

// NewCounters returns an empty counter container (Algorithm 1 line 4).
func NewCounters() *Counters {
	return &Counters{
		Total: make(map[int]int),
		UA:    make(map[int]int),
		UR:    make(map[int]int),
	}
}

// Analyze folds the incremental records into fresh counters
// (Algorithm 1 lines 5–17).
func Analyze(records []Record) *Counters {
	c := NewCounters()
	for _, r := range records {
		switch r.Op {
		case OpUpdateAddEdge:
			c.UA[r.GraphID]++
		case OpUpdateRemoveEdge:
			c.UR[r.GraphID]++
		}
		c.Total[r.GraphID]++
		c.Records++
	}
	return c
}

// UAExclusive reports whether every operation on graph id was UA
// (the tc == uac test of Algorithm 2 line 12).
func (c *Counters) UAExclusive(id int) bool {
	return c.Total[id] > 0 && c.Total[id] == c.UA[id]
}

// URExclusive reports whether every operation on graph id was UR
// (the tc == urc test of Algorithm 2 line 14).
func (c *Counters) URExclusive(id int) bool {
	return c.Total[id] > 0 && c.Total[id] == c.UR[id]
}

// TouchedIDs returns the ids of all graphs with at least one operation
// (the keyset iterated by Algorithm 2 line 7), in unspecified order.
func (c *Counters) TouchedIDs() []int {
	out := make([]int, 0, len(c.Total))
	for id := range c.Total {
		out = append(out, id)
	}
	return out
}
