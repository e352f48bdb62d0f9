// Package changeplan generates and executes the paper's dataset change
// plans (§7.1 "Dataset Change Plan").
//
// A plan is a set of operation batches; each batch has an occurrence time
// expressed as a query index ("occurrence time for the batch is selected
// uniformly at random from the id of queries") and a list of operation
// types drawn uniformly from {ADD, DEL, UA, UR}. The *types* are fixed at
// generation, but the paper resolves the *targets* against the up-to-date
// dataset at running time (DEL/UA/UR "using the up-to-date dataset at
// running time", ADD "using the initial dataset ... so as to maximally
// keep the original dataset characteristics"), so target resolution
// happens in the Executor as the workload advances.
//
// The paper's AIDS plan: 2,000 operations in 100 batches of 20 during
// 10,000 queries. Scaled configurations preserve the ops-per-query
// density.
package changeplan

import (
	"fmt"
	"math/rand"
	"sort"

	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/randx"
)

// Config parameterizes plan generation.
type Config struct {
	// Queries is the workload length the plan spans (paper: 10,000).
	Queries int
	// Batches is the number of operation batches (paper: 100).
	Batches int
	// OpsPerBatch is the number of operations per batch (paper: 20).
	OpsPerBatch int
	// Seed drives both batch placement and runtime target resolution.
	Seed int64
}

// Default returns the paper-scale plan configuration.
func Default() Config {
	return Config{Queries: 10000, Batches: 100, OpsPerBatch: 20, Seed: 1}
}

// Scaled shrinks the plan to q queries, preserving the paper's density of
// operations per query (2,000 ops / 10,000 queries = 0.2).
func Scaled(q int, seed int64) Config {
	d := Default()
	batches := d.Batches * q / d.Queries
	if batches < 1 {
		batches = 1
	}
	return Config{Queries: q, Batches: batches, OpsPerBatch: d.OpsPerBatch, Seed: seed}
}

// Batch is a group of operations applied immediately before the query
// with index AtQuery executes.
type Batch struct {
	// AtQuery is the occurrence time (query index in [0, Queries)).
	AtQuery int
	// Ops are the operation types, resolved to targets at execution.
	Ops []dataset.OpType
}

// Plan is an ordered sequence of batches (ascending AtQuery).
type Plan struct {
	// Batches sorted by AtQuery; several batches may share a time.
	Batches []Batch
	// Queries is the workload length the plan was generated for.
	Queries int
}

// Generate creates a plan: batch times uniform over query ids, operation
// types uniform over {ADD, DEL, UA, UR}.
func Generate(cfg Config) (*Plan, error) {
	if cfg.Queries <= 0 || cfg.Batches < 0 || cfg.OpsPerBatch <= 0 {
		return nil, fmt.Errorf("changeplan: invalid config %+v", cfg)
	}
	rng := randx.New(cfg.Seed)
	p := &Plan{Queries: cfg.Queries, Batches: make([]Batch, cfg.Batches)}
	for i := range p.Batches {
		ops := make([]dataset.OpType, cfg.OpsPerBatch)
		for j := range ops {
			ops[j] = dataset.OpType(rng.Intn(4))
		}
		p.Batches[i] = Batch{AtQuery: rng.Intn(cfg.Queries), Ops: ops}
	}
	sort.SliceStable(p.Batches, func(a, b int) bool {
		return p.Batches[a].AtQuery < p.Batches[b].AtQuery
	})
	return p, nil
}

// Op is one fully resolved dataset change operation: the operation type
// plus its concrete target. It is the reusable currency between change
// plans, the serving layer's update API (POST /update on gcserve) and
// ad-hoc dataset manipulation — anything that needs to describe "one ADD
// / DEL / UA / UR against specific targets" independent of how the
// targets were chosen.
type Op struct {
	// Type is the operation type.
	Type dataset.OpType
	// Graph is the graph to insert; required for ADD, ignored otherwise.
	Graph *graph.Graph
	// GraphID is the target dataset graph for DEL/UA/UR.
	GraphID int
	// U, V are the edge endpoints for UA/UR.
	U, V int
}

// AddOp describes an ADD of g.
func AddOp(g *graph.Graph) Op { return Op{Type: dataset.OpAdd, Graph: g} }

// DeleteOp describes a DEL of graph id.
func DeleteOp(id int) Op { return Op{Type: dataset.OpDelete, GraphID: id} }

// AddEdgeOp describes a UA adding {u,v} to graph id.
func AddEdgeOp(id, u, v int) Op {
	return Op{Type: dataset.OpUpdateAddEdge, GraphID: id, U: u, V: v}
}

// RemoveEdgeOp describes a UR removing {u,v} from graph id.
func RemoveEdgeOp(id, u, v int) Op {
	return Op{Type: dataset.OpUpdateRemoveEdge, GraphID: id, U: u, V: v}
}

// String renders the op in the paper's notation.
func (op Op) String() string {
	switch op.Type {
	case dataset.OpAdd:
		name := "?"
		if op.Graph != nil {
			name = op.Graph.Name()
		}
		return fmt.Sprintf("ADD(%s)", name)
	case dataset.OpDelete:
		return fmt.Sprintf("DEL(G%d)", op.GraphID)
	case dataset.OpUpdateAddEdge:
		return fmt.Sprintf("UA(G%d,{%d,%d})", op.GraphID, op.U, op.V)
	case dataset.OpUpdateRemoveEdge:
		return fmt.Sprintf("UR(G%d,{%d,%d})", op.GraphID, op.U, op.V)
	}
	return op.Type.String()
}

// Apply executes the op against ds. For ADD it returns the id assigned to
// the new graph; for the other operations it returns op.GraphID.
func (op Op) Apply(ds *dataset.Dataset) (int, error) {
	switch op.Type {
	case dataset.OpAdd:
		return ds.Add(op.Graph)
	case dataset.OpDelete:
		return op.GraphID, ds.Delete(op.GraphID)
	case dataset.OpUpdateAddEdge:
		return op.GraphID, ds.UpdateAddEdge(op.GraphID, op.U, op.V)
	case dataset.OpUpdateRemoveEdge:
		return op.GraphID, ds.UpdateRemoveEdge(op.GraphID, op.U, op.V)
	}
	return 0, fmt.Errorf("changeplan: unknown op type %v", op.Type)
}

// Executor applies a plan against a dataset as a workload advances. It
// resolves operation targets at application time with its own seeded RNG,
// per the paper's running-time semantics.
type Executor struct {
	plan *Plan
	rng  *rand.Rand
	// initial is the frozen initial dataset used as the ADD pool.
	initial []*graph.Graph
	next    int // index of the next unapplied batch
	applied int // operations successfully applied
	skipped int // operations dropped after exhausting retries
}

// NewExecutor prepares a plan for execution. The initial slice is the
// dataset's original graph list (cloned on ADD).
func NewExecutor(plan *Plan, initial []*graph.Graph, seed int64) *Executor {
	return &Executor{plan: plan, rng: randx.New(seed), initial: initial}
}

// Applied returns the number of operations applied so far.
func (e *Executor) Applied() int { return e.applied }

// Skipped returns the number of operations that could not be resolved
// (e.g. UR on an edgeless graph after many retries).
func (e *Executor) Skipped() int { return e.skipped }

// Done reports whether every batch has fired.
func (e *Executor) Done() bool { return e.next >= len(e.plan.Batches) }

// ApplyDue applies every batch with AtQuery ≤ queryIndex that has not yet
// fired, resolving targets against the current dataset. It returns the
// number of operations applied by this call.
func (e *Executor) ApplyDue(ds *dataset.Dataset, queryIndex int) int {
	n := 0
	for e.next < len(e.plan.Batches) && e.plan.Batches[e.next].AtQuery <= queryIndex {
		for _, op := range e.plan.Batches[e.next].Ops {
			if e.applyOne(ds, op) {
				n++
				e.applied++
			} else {
				e.skipped++
			}
		}
		e.next++
	}
	return n
}

// applyOne resolves a single operation into an Op against the current
// dataset and applies it, retrying target draws a bounded number of times.
func (e *Executor) applyOne(ds *dataset.Dataset, op dataset.OpType) bool {
	for tries := 0; tries < 32; tries++ {
		resolved, status := e.resolve(ds, op)
		switch status {
		case resolveImpossible:
			return false
		case resolveRetry:
			continue
		}
		if _, err := resolved.Apply(ds); err == nil {
			return true
		}
	}
	return false
}

type resolveStatus uint8

const (
	resolveOK resolveStatus = iota
	// resolveRetry means this draw was unusable (e.g. the drawn edge
	// already exists) but another draw may succeed.
	resolveRetry
	// resolveImpossible means no draw can succeed in the current state.
	resolveImpossible
)

// resolve draws concrete targets for one operation type against the
// up-to-date dataset, per the paper's running-time semantics.
func (e *Executor) resolve(ds *dataset.Dataset, op dataset.OpType) (Op, resolveStatus) {
	switch op {
	case dataset.OpAdd:
		if len(e.initial) == 0 {
			return Op{}, resolveImpossible
		}
		return AddOp(e.initial[e.rng.Intn(len(e.initial))].Clone()), resolveOK
	case dataset.OpDelete:
		ids := ds.LiveIDs()
		if len(ids) <= 1 {
			return Op{}, resolveImpossible // never drain the dataset
		}
		return DeleteOp(ids[e.rng.Intn(len(ids))]), resolveOK
	case dataset.OpUpdateAddEdge:
		ids := ds.LiveIDs()
		if len(ids) == 0 {
			return Op{}, resolveImpossible
		}
		id := ids[e.rng.Intn(len(ids))]
		g := ds.Graph(id)
		n := g.NumVertices()
		if n < 2 {
			return Op{}, resolveRetry
		}
		u, v := e.rng.Intn(n), e.rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			return Op{}, resolveRetry
		}
		return AddEdgeOp(id, u, v), resolveOK
	case dataset.OpUpdateRemoveEdge:
		ids := ds.LiveIDs()
		if len(ids) == 0 {
			return Op{}, resolveImpossible
		}
		id := ids[e.rng.Intn(len(ids))]
		g := ds.Graph(id)
		if g.NumEdges() == 0 {
			return Op{}, resolveRetry
		}
		es := g.EdgeList()
		ed := es[e.rng.Intn(len(es))]
		return RemoveEdgeOp(id, int(ed.U), int(ed.V)), resolveOK
	}
	return Op{}, resolveImpossible
}
