// Package dataset implements GC+'s Dataset Manager subsystem (§4 of the
// paper): the store of dataset graphs, the four change operations the
// paper models — graph addition (ADD), graph deletion (DEL), graph update
// by edge addition (UA) and by edge removal (UR) — the dataset update log,
// and the Log Analyzer of Algorithm 1.
//
// Graph ids are dense integers assigned at insertion and never reused:
// in Figure 2 of the paper, after {G0..G3}, an ADD creates G4, and after
// DEL G0 the remaining ids stay {1,2,3,4}. Cached answer/validity bitsets
// are indexed by these ids, so id stability is what makes Algorithm 2's
// bit bookkeeping sound.
package dataset

import (
	"fmt"
	"sync"

	"gcplus/internal/bitset"
	"gcplus/internal/graph"
)

// OpType enumerates the paper's dataset change operations.
type OpType uint8

const (
	// OpAdd inserts a new dataset graph (paper: ADD).
	OpAdd OpType = iota
	// OpDelete removes a dataset graph (paper: DEL).
	OpDelete
	// OpUpdateAddEdge adds one edge to an existing graph (paper: UA).
	OpUpdateAddEdge
	// OpUpdateRemoveEdge removes one edge from an existing graph (paper: UR).
	OpUpdateRemoveEdge
)

// String returns the paper's abbreviation for the operation.
func (t OpType) String() string {
	switch t {
	case OpAdd:
		return "ADD"
	case OpDelete:
		return "DEL"
	case OpUpdateAddEdge:
		return "UA"
	case OpUpdateRemoveEdge:
		return "UR"
	}
	return fmt.Sprintf("OpType(%d)", uint8(t))
}

// ParseOpType converts the paper's abbreviation ("ADD", "DEL", "UA",
// "UR") back to an OpType; update APIs use it to decode wire requests.
func ParseOpType(s string) (OpType, error) {
	switch s {
	case "ADD":
		return OpAdd, nil
	case "DEL":
		return OpDelete, nil
	case "UA":
		return OpUpdateAddEdge, nil
	case "UR":
		return OpUpdateRemoveEdge, nil
	}
	return 0, fmt.Errorf("dataset: unknown op type %q (want ADD, DEL, UA or UR)", s)
}

// Record is one entry of the dataset update log.
type Record struct {
	// Seq is the 1-based log sequence number.
	Seq uint64
	// Op is the operation type.
	Op OpType
	// GraphID identifies the dataset graph operated on (for OpAdd, the id
	// assigned to the new graph).
	GraphID int
	// U, V are the edge endpoints for OpUpdateAddEdge/OpUpdateRemoveEdge.
	U, V int32
}

// Dataset is a mutable collection of labelled graphs with a change log.
// It is safe for concurrent use.
type Dataset struct {
	mu     sync.RWMutex
	graphs []*graph.Graph // id -> current version; nil after DEL
	live   *bitset.Set
	seq    uint64
	// log holds the records with Seq > logStart: record s sits at index
	// s-1-logStart. logBase ≥ logStart is the cursor RecordsSince answers
	// from; the records in (logStart, logBase] were dropped by TrimLog
	// and wait for compaction. Both are 0 for a fresh dataset and the
	// snapshot's sequence number for a dataset rebuilt by Restore, whose
	// pre-snapshot history is not retained.
	log               []Record
	logStart, logBase uint64
}

// New builds a dataset from the initial graphs, assigning ids 0..n-1.
// The initial load is not logged: the log records *changes* relative to
// the dataset the cache warmed against, exactly as in the paper's model.
func New(initial []*graph.Graph) *Dataset {
	d := &Dataset{
		graphs: make([]*graph.Graph, 0, len(initial)),
		live:   bitset.New(len(initial)),
	}
	for _, g := range initial {
		g.Summary() // warm the structural summary off the query path
		d.graphs = append(d.graphs, g)
		d.live.Set(len(d.graphs) - 1)
	}
	return d
}

// Add appends a new graph, returning its id (the paper's ADD).
func (d *Dataset) Add(g *graph.Graph) (int, error) {
	if g == nil {
		return 0, fmt.Errorf("dataset: cannot add nil graph")
	}
	g.Summary() // warm the structural summary off the query path
	d.mu.Lock()
	defer d.mu.Unlock()
	id := len(d.graphs)
	d.graphs = append(d.graphs, g)
	d.live.Set(id)
	d.seq++
	d.log = append(d.log, Record{Seq: d.seq, Op: OpAdd, GraphID: id})
	return id, nil
}

// Delete removes graph id (the paper's DEL).
func (d *Dataset) Delete(id int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkLive(id); err != nil {
		return err
	}
	d.graphs[id] = nil
	d.live.Clear(id)
	d.seq++
	d.log = append(d.log, Record{Seq: d.seq, Op: OpDelete, GraphID: id})
	return nil
}

// UpdateAddEdge adds the edge {u,v} to graph id (the paper's UA).
func (d *Dataset) UpdateAddEdge(id int, u, v int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkLive(id); err != nil {
		return err
	}
	g, err := d.graphs[id].WithEdge(u, v)
	if err != nil {
		return fmt.Errorf("dataset: UA on graph %d: %w", id, err)
	}
	g.Summary() // the updated version is a fresh graph; warm its summary
	d.graphs[id] = g
	d.seq++
	d.log = append(d.log, Record{Seq: d.seq, Op: OpUpdateAddEdge, GraphID: id, U: int32(u), V: int32(v)})
	return nil
}

// UpdateRemoveEdge removes the edge {u,v} from graph id (the paper's UR).
func (d *Dataset) UpdateRemoveEdge(id int, u, v int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkLive(id); err != nil {
		return err
	}
	g, err := d.graphs[id].WithoutEdge(u, v)
	if err != nil {
		return fmt.Errorf("dataset: UR on graph %d: %w", id, err)
	}
	g.Summary() // the updated version is a fresh graph; warm its summary
	d.graphs[id] = g
	d.seq++
	d.log = append(d.log, Record{Seq: d.seq, Op: OpUpdateRemoveEdge, GraphID: id, U: int32(u), V: int32(v)})
	return nil
}

func (d *Dataset) checkLive(id int) error {
	if id < 0 || id >= len(d.graphs) {
		return fmt.Errorf("dataset: graph id %d out of range [0,%d)", id, len(d.graphs))
	}
	if d.graphs[id] == nil {
		return fmt.Errorf("dataset: graph %d is deleted", id)
	}
	return nil
}

// Graph returns the current version of graph id, or nil if it was deleted
// or never existed.
func (d *Dataset) Graph(id int) *graph.Graph {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || id >= len(d.graphs) {
		return nil
	}
	return d.graphs[id]
}

// LiveSnapshot returns a copy of the set of live graph ids — the
// state-of-the-art dataset, which doubles as Method M's candidate set
// CS_M(g) when GC+ fronts a pure SI method.
func (d *Dataset) LiveSnapshot() *bitset.Set {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.live.Clone()
}

// LiveIDs returns the live graph ids in ascending order.
func (d *Dataset) LiveIDs() []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.live.Indices()
}

// LiveCount returns the number of live graphs.
func (d *Dataset) LiveCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.live.Count()
}

// MaxID returns the maximum graph id ever assigned, or -1 for an empty
// dataset. Algorithm 2 uses it to extend validity indicators.
func (d *Dataset) MaxID() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.graphs) - 1
}

// Seq returns the sequence number of the latest log record (0 if none).
func (d *Dataset) Seq() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.seq
}

// RecordsSince returns a copy of all log records with Seq > after, i.e.
// the "incremental records R extracted from L" of Algorithm 1 line 5.
// after must not precede the log's base (the snapshot sequence number
// for a Restored dataset, or the last TrimLog): records before the base
// are gone, so such a call could not be answered soundly and panics
// instead of silently dropping history.
func (d *Dataset) RecordsSince(after uint64) []Record {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if after >= d.seq {
		return nil
	}
	if after < d.logBase {
		panic(fmt.Sprintf("dataset: RecordsSince(%d) precedes the retained log (base %d)", after, d.logBase))
	}
	recs := d.log[after-d.logStart:]
	out := make([]Record, len(recs))
	copy(out, recs)
	return out
}

// TrimLog drops the log records with Seq ≤ seq, moving the log's base
// to seq: the log's one reader, the cache, calls it once it has
// reconciled through seq, so the log holds only what the cache has yet
// to read instead of every change ever made. The slice is compacted in
// place only once the dropped prefix is at least half of it, so a trim
// after every update batch copies each record at most once.
func (d *Dataset) TrimLog(seq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	seq = min(seq, d.seq)
	if seq <= d.logBase {
		return
	}
	d.logBase = seq
	if dead := seq - d.logStart; 2*dead >= uint64(len(d.log)) {
		d.log = append(d.log[:0], d.log[dead:]...)
		d.logStart = seq
	}
}

// Snapshot is an exported point-in-time dataset state: the full id →
// graph table (nil marking deleted ids, so id stability survives a
// restart) and the log sequence number it reflects. Graphs are shared,
// not copied — graph values are immutable once published.
type Snapshot struct {
	// Graphs is indexed by graph id; nil entries are deleted ids.
	Graphs []*graph.Graph
	// Seq is the log sequence number the table reflects.
	Seq uint64
}

// Export snapshots the dataset state. The update log itself is not
// exported: a runtime built over the restored dataset starts its cache
// at Seq, so it never reads a record from before the snapshot.
func (d *Dataset) Export() *Snapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := &Snapshot{Graphs: make([]*graph.Graph, len(d.graphs)), Seq: d.seq}
	copy(s.Graphs, d.graphs)
	return s
}

// Restore rebuilds a dataset from an exported snapshot. The restored
// dataset continues sequence numbering at s.Seq with an empty log
// (RecordsSince can answer any cursor ≥ s.Seq, which is where the cache
// of a runtime built over it starts), and ids beyond the snapshot are
// assigned exactly as the original would have.
func Restore(s *Snapshot) *Dataset {
	d := &Dataset{
		graphs:   make([]*graph.Graph, len(s.Graphs)),
		live:     bitset.New(len(s.Graphs)),
		seq:      s.Seq,
		logStart: s.Seq,
		logBase:  s.Seq,
	}
	copy(d.graphs, s.Graphs)
	for id, g := range d.graphs {
		if g != nil {
			g.Summary() // warm the structural summary off the query path
			d.live.Set(id)
		}
	}
	return d
}

// Stats summarizes the live part of the dataset; the benchmark reports use
// it to document generated datasets next to the AIDS statistics the paper
// quotes (≈45 vertices avg, ≈47 edges avg).
type Stats struct {
	Graphs      int
	MeanV       float64
	MeanE       float64
	MaxV        int
	MaxE        int
	LabelKinds  int
	TotalV      int
	TotalE      int
	MeanDegrees float64
}

// ComputeStats scans the live graphs.
func (d *Dataset) ComputeStats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var s Stats
	labels := map[graph.Label]struct{}{}
	d.live.ForEach(func(id int) bool {
		g := d.graphs[id]
		s.Graphs++
		s.TotalV += g.NumVertices()
		s.TotalE += g.NumEdges()
		if g.NumVertices() > s.MaxV {
			s.MaxV = g.NumVertices()
		}
		if g.NumEdges() > s.MaxE {
			s.MaxE = g.NumEdges()
		}
		for _, l := range g.Labels() {
			labels[l] = struct{}{}
		}
		return true
	})
	s.LabelKinds = len(labels)
	if s.Graphs > 0 {
		s.MeanV = float64(s.TotalV) / float64(s.Graphs)
		s.MeanE = float64(s.TotalE) / float64(s.Graphs)
	}
	if s.TotalV > 0 {
		s.MeanDegrees = 2 * float64(s.TotalE) / float64(s.TotalV)
	}
	return s
}
