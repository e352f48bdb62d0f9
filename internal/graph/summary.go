package graph

import (
	"slices"
	"sync/atomic"
)

// Summary is an immutable, precomputed digest of one graph: the pieces of
// structure every sub-iso quick-reject and candidate-pruning step keeps
// re-deriving — label multiset, degree sequence, per-vertex neighbourhood
// label profiles — materialized once so the verification hot path touches
// only sorted slices, never maps.
//
// Summaries are memoized on the Graph itself (graphs are immutable once
// published) and the Dataset Manager warms them at insert/update time, so
// query-time verification finds them already built.
type Summary struct {
	vertices  int
	edges     int
	maxDegree int
	// degrees is the degree sequence sorted descending.
	degrees []int32
	// labels holds per-label vertex counts sorted ascending by label.
	labels []LabelCount
	// byLabel lists the vertices grouped into labels' runs (ByLabel).
	byLabel []int32
	// profOff/profLab hold, per vertex, the sorted multiset of its
	// neighbours' labels: vertex v's profile is profLab[profOff[v]:profOff[v+1]].
	profOff []int32
	profLab []Label
}

// LabelCount is one (label, vertex count) pair of a Summary.
type LabelCount struct {
	Label Label
	Count int32
}

// Summary returns the graph's structural summary, computing and memoizing
// it on first use. Safe for concurrent use on published (immutable) graphs.
func (g *Graph) Summary() *Summary {
	if s := g.summary.Load(); s != nil {
		return s
	}
	s := summarize(g)
	g.summary.Store(s)
	return s
}

func summarize(g *Graph) *Summary {
	nv := g.NumVertices()
	// degrees, profOff and byLabel share one allocation: summaries are
	// rebuilt on every UA/UR/ADD, so they sit on the update path.
	back := make([]int32, 3*nv+1)
	s := &Summary{
		vertices: nv,
		edges:    g.NumEdges(),
		degrees:  back[:nv:nv],
		profOff:  back[nv : 2*nv+1 : 2*nv+1],
		byLabel:  back[2*nv+1:],
		profLab:  make([]Label, 0, 2*g.NumEdges()),
	}
	for v := 0; v < nv; v++ {
		s.maxDegree = max(s.maxDegree, g.Degree(v))
	}
	// The degree sequence by counting sort: degrees are bounded by
	// maxDegree, small in the sparse graphs GC+ stores.
	var small [16]int32
	perDegree := small[:]
	if s.maxDegree >= len(small) {
		perDegree = make([]int32, s.maxDegree+1)
	}
	for v := 0; v < nv; v++ {
		perDegree[g.Degree(v)]++
	}
	i := 0
	for d := s.maxDegree; d >= 0; d-- {
		for ; perDegree[d] > 0; perDegree[d]-- {
			s.degrees[i] = int32(d)
			i++
		}
	}

	// Label counts via sort + run-length encoding: no map, and the result
	// is born in the sorted order SubsumedBy's merge walk needs.
	sorted := slices.Clone(g.labels)
	slices.Sort(sorted)
	kinds := 0
	for i := range sorted {
		if i == 0 || sorted[i] != sorted[i-1] {
			kinds++
		}
	}
	s.labels = make([]LabelCount, 0, kinds)
	for i := 0; i < nv; {
		j := i
		for j < nv && sorted[j] == sorted[i] {
			j++
		}
		s.labels = append(s.labels, LabelCount{Label: sorted[i], Count: int32(j - i)})
		i = j
	}
	// byLabel by counting sort: each run's next free slot lives in the
	// now-unused head of sorted. Skewed label distributions make runs of
	// one label common, so the previous vertex's run is tried first.
	next := sorted[:kinds]
	off := Label(0)
	for k, lc := range s.labels {
		next[k] = off
		off += Label(lc.Count)
	}
	k := 0
	for v, l := range g.labels {
		if s.labels[k].Label != l {
			k = s.labelIndex(l)
		}
		s.byLabel[next[k]] = int32(v)
		next[k]++
	}

	for v := 0; v < nv; v++ {
		s.profOff[v] = int32(len(s.profLab))
		start := len(s.profLab)
		for _, w := range g.Neighbors(v) {
			s.profLab = append(s.profLab, g.Label(int(w)))
		}
		slices.Sort(s.profLab[start:])
	}
	s.profOff[nv] = int32(len(s.profLab))
	return s
}

// Vertices returns |V|.
func (s *Summary) Vertices() int { return s.vertices }

// Edges returns |E|.
func (s *Summary) Edges() int { return s.edges }

// MaxDegree returns the maximum vertex degree.
func (s *Summary) MaxDegree() int { return s.maxDegree }

// LabelCounts returns the per-label vertex counts sorted ascending by
// label. The caller must not modify it.
func (s *Summary) LabelCounts() []LabelCount { return s.labels }

// ByLabel returns the vertices grouped by label: the k-th LabelCounts
// entry's vertices come k-th, ascending, so a walk over LabelCounts can
// hand each vertex a per-label value without a search. The caller must
// not modify it.
func (s *Summary) ByLabel() []int32 { return s.byLabel }

// Profile returns the sorted multiset of vertex v's neighbours' labels.
// The caller must not modify it.
func (s *Summary) Profile(v int) []Label {
	return s.profLab[s.profOff[v]:s.profOff[v+1]]
}

// LabelRun returns the vertices carrying label l, ascending: l's run of
// ByLabel, empty when no vertex carries l. The caller must not modify it.
func (s *Summary) LabelRun(l Label) []int32 {
	k := s.labelIndex(l)
	if k == len(s.labels) || s.labels[k].Label != l {
		return nil
	}
	off := int32(0)
	for _, lc := range s.labels[:k] {
		off += lc.Count
	}
	return s.byLabel[off : off+s.labels[k].Count]
}

// LabelFreq returns the number of vertices carrying label l.
func (s *Summary) LabelFreq(l Label) int32 {
	if i := s.labelIndex(l); i < len(s.labels) && s.labels[i].Label == l {
		return s.labels[i].Count
	}
	return 0
}

// labelIndex returns the index of the first labels entry not below l.
func (s *Summary) labelIndex(l Label) int {
	lo, hi := 0, len(s.labels)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if s.labels[h].Label < l {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// SubsumedBy reports whether every summary component of s is dominated by
// o's: vertex/edge counts, the sorted degree sequence (the k-th largest
// degree of s must not exceed o's — valid because an embedding pairs every
// pattern vertex with a distinct target vertex of at least its degree),
// and the per-label vertex counts. It is a necessary condition for the
// graph of s being subgraph-isomorphic (as a monomorphism) to that of o,
// and strictly subsumes the classic size/max-degree/label quick-reject.
func (s *Summary) SubsumedBy(o *Summary) bool {
	if s.vertices > o.vertices || s.edges > o.edges || s.maxDegree > o.maxDegree {
		return false
	}
	i, j := 0, 0
	for i < len(s.labels) {
		if j == len(o.labels) || s.labels[i].Label < o.labels[j].Label {
			return false // label of s missing in o
		}
		if s.labels[i].Label > o.labels[j].Label {
			j++
			continue
		}
		if s.labels[i].Count > o.labels[j].Count {
			return false
		}
		i++
		j++
	}
	for k, d := range s.degrees {
		if d > o.degrees[k] {
			return false
		}
	}
	return true
}

// summaryCell wraps the memoized summary pointer. A dedicated type keeps
// the atomic out of Graph's public face and documents that copying Graph
// values (which no code does — graphs live behind pointers) would reset it.
type summaryCell struct {
	p atomic.Pointer[Summary]
}

func (c *summaryCell) Load() *Summary   { return c.p.Load() }
func (c *summaryCell) Store(s *Summary) { c.p.Store(s) }
