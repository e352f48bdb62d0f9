package main

// Rung "subiso": cache-bypassed Method M — compile the query once, test it
// against every live graph. The same code is the audit oracle: it keeps the
// benchmark's own copy of the dataset and re-answers sampled queries at the
// epoch the system reported.
//
// Pins: subiso.New, subiso.CompileSub, subiso.CompileSuper, Matcher.Contains.

import (
	"fmt"
	"slices"
	"time"

	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
)

type oracle struct {
	graphs []*graph.Graph // by global id; nil once deleted
	algo   subiso.Algorithm
	epoch  uint64

	// When timed is set (the ladder's subiso rung) every compile and every
	// containment test is clocked on its own.
	timed     bool
	compileNS []int64
	testNS    []int64
}

func newOracle(ds []*graph.Graph) *oracle {
	algo, err := subiso.New("VF2") // the server's default Method M
	if err != nil {
		panic(err)
	}
	return &oracle{graphs: append([]*graph.Graph(nil), ds...), algo: algo}
}

func (o *oracle) compile(r *request) *subiso.Matcher {
	if r.super {
		return subiso.CompileSuper(r.q, o.algo)
	}
	return subiso.CompileSub(r.q, o.algo)
}

// answer returns the ids of the live graphs that contain r.q (sub) or are
// contained in it (super), and the number of tests that took.
func (o *oracle) answer(r *request) (ids []int, tests int) {
	t0 := time.Now()
	m := o.compile(r)
	if o.timed {
		o.compileNS = append(o.compileNS, int64(time.Since(t0)))
	}
	for id, g := range o.graphs {
		if g == nil {
			continue
		}
		tests++
		if o.timed {
			t0 = time.Now()
		}
		ok := m.Contains(g)
		if o.timed {
			o.testNS = append(o.testNS, int64(time.Since(t0)))
		}
		if ok {
			ids = append(ids, id)
		}
	}
	return ids, tests
}

// apply replays one acknowledged batch: ids[i] is the id op i targeted or
// was assigned. An op that does not apply to the copy means the system's
// acknowledgement and the benchmark's log disagree.
func (o *oracle) apply(b *batch, ids []int) error {
	for i, op := range b.ops {
		id := ids[i]
		if op.Type == dataset.OpAdd {
			if id != len(o.graphs) {
				return fmt.Errorf("ADD acknowledged id %d, copy expects %d", id, len(o.graphs))
			}
			o.graphs = append(o.graphs, op.Graph)
			continue
		}
		if id < 0 || id >= len(o.graphs) || o.graphs[id] == nil {
			return fmt.Errorf("%s names graph %d, which the copy does not hold", op.Type, id)
		}
		var err error
		switch op.Type {
		case dataset.OpDelete:
			o.graphs[id] = nil
		case dataset.OpUpdateAddEdge:
			o.graphs[id], err = o.graphs[id].WithEdge(op.U, op.V)
		case dataset.OpUpdateRemoveEdge:
			o.graphs[id], err = o.graphs[id].WithoutEdge(op.U, op.V)
		}
		if err != nil {
			return err
		}
	}
	o.epoch++
	return nil
}

// oracle as a ladder rung.

func (o *oracle) Query(_ int, r *request, _ bool) (answer, error) {
	ids, tests := o.answer(r)
	return answer{ids: ids, epoch: o.epoch, tests: tests, candidates: tests}, nil
}

func (o *oracle) Update(_ int, b *batch, _ func(int, time.Duration)) (ack, error) {
	ids := make([]int, len(b.ops))
	next := len(o.graphs)
	for i, op := range b.ops {
		ids[i] = op.GraphID
		if op.Type == dataset.OpAdd {
			ids[i] = next
			next++
		}
	}
	if err := o.apply(b, ids); err != nil {
		return ack{}, err
	}
	return ack{epoch: o.epoch, ids: ids}, nil
}

func (o *oracle) Close() error { return nil }

type subisoRun struct {
	run               *rungRun
	testNS, compileNS []int64 // sorted
}

func rungSubiso(l *spanLog, c runConfig, in *inputs) (*subisoRun, error) {
	o := newOracle(in.dataset)
	o.timed = true
	// Preallocated so the clocked loop's own appends never allocate.
	o.compileNS = make([]int64, 0, c.w.subisoReplay)
	o.testNS = make([]int64, 0, c.w.subisoReplay*(len(in.dataset)+len(in.batches)))
	run, err := replay(l, c, in, o, replayOpts{layer: "subiso", parent: "core", n: c.w.subisoReplay, skipWarmQuery: true})
	if err != nil {
		return nil, err
	}
	slices.Sort(o.testNS)
	slices.Sort(o.compileNS)
	return &subisoRun{run: run, testNS: o.testNS, compileNS: o.compileNS}, nil
}
