package main

// Input generation. Everything the system under test receives — dataset,
// query stream, update batches, pre-rendered HTTP bodies — is a pure
// function of (workload, scale, seed, stream length) and is built here,
// before any server exists.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"gcplus"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/workload"
)

// request is one query of the stream.
type request struct {
	q     *graph.Graph
	super bool   // supergraph query (sub otherwise)
	body  []byte // text-codec rendering, the POST /query body
}

// render fills body; HTTP workloads do it for the whole stream in set-up,
// the ladder's graph and http rungs for the requests they replay.
func (r *request) render() {
	if r.body == nil {
		r.q.SetName("q")
		r.body = graph.Marshal(r.q)
	}
}

func (r *request) kindName() string {
	if r.super {
		return "super"
	}
	return "sub"
}

// batch is one update batch: the ops for the facade and their JSON
// rendering for POST /update (HTTP workloads only).
type batch struct {
	ops  []gcplus.UpdateOp
	wire []byte
}

// inputs is everything one run feeds the system.
type inputs struct {
	dataset []*graph.Graph
	// reqs holds one request per slot, or — for the repeat stream — the
	// pool of distinct patterns that order indexes.
	reqs  []request
	order []int32 // repeat stream only: slot → pool index, cycled
	slots int     // stream length
	// batches are applied in index order. On the churn stream batch k
	// rides on slot k×updateEvery; read-only workloads apply them as the
	// write tail after the timed phase.
	batches []batch
	digest  uint64 // order-dependent digest of the stream, for reproducibility checks
}

func (in *inputs) req(slot int) *request {
	if in.order != nil {
		return &in.reqs[in.order[slot%len(in.order)]]
	}
	return &in.reqs[slot]
}

// repeatOrderLen is the length of the repeat stream's draw sequence; longer
// streams cycle it. 65536 draws over 80 patterns repeat every pattern
// thousands of times, so the cycle seam is invisible to the cache.
const repeatOrderLen = 1 << 16

// populationSeed fixes what the requests are drawn from: the dataset and the
// repeat stream's pattern pool with its popularity ranks. --seed draws the
// request and update streams from that population. A seed that redrew the
// population as well moved cold_scan between 1.0k and 2.8k qps and
// churn_durable between 1.3k and 3.0k on one commit — the difficulty of the
// drawn graphs, not the system — and no regression bound could have held
// across seeds.
const populationSeed = 1

func generateInputs(w workloadSpec, sc scale, seed int64, seconds int) (*inputs, error) {
	ds, err := gcplus.GenerateAIDSLike(sc.graphs, populationSeed)
	if err != nil {
		return nil, err
	}
	in := &inputs{dataset: ds, slots: w.ratePerSec * seconds}
	// Never shorter than what the ladder replays and answers_fnv folds.
	in.slots = max(in.slots, w.warmup+max(w.replay, w.fnvPrefix)+1)
	nBatches := w.tailBatches
	switch w.stream {
	case streamRepeat:
		err = in.genRepeat(sc, seed+1)
	case streamScan:
		err = in.genScan(seed + 1)
	case streamChurn:
		// One batch per updateEvery slots, plus what aligning the crash
		// image may take (run.go alignCrashImage).
		nBatches = in.slots/updateEvery + 1 + 2*crashImageTail + 256
		err = in.genTypeA(workload.Zipf, seed+1)
	}
	if err != nil {
		return nil, err
	}
	if w.http {
		for i := range in.reqs {
			in.reqs[i].render()
		}
	}
	in.batches = genBatches(ds, nBatches, seed+2, w.http)
	in.digest = in.streamDigest()
	return in, nil
}

// genRepeat builds the repeat stream: workload.TypeB's pools (positive and
// no-answer patterns, 20% no-answer coin, Zipf α=1.4 within a pool) drawn
// once at populationSeed, then resampled by the run's seed — every slot is
// an independent draw from TypeB's own draw sequence, so the popularity of
// each pattern is the population's and only the arrival order is the seed's.
func (in *inputs) genRepeat(sc scale, seed int64) error {
	n := repeatOrderLen / sc.divide
	wl, err := workload.TypeB(in.dataset, workload.TypeBConfig{
		Queries: n, PoolSize: sc.poolSize, NoAnswerPoolSize: sc.poolSize / 4,
		NoAnswerProb: 0.2, Seed: populationSeed,
	})
	if err != nil {
		return err
	}
	// TypeB hands back one clone per draw; recover the distinct patterns.
	index := map[string]int32{}
	drawn := make([]int32, n)
	for i, q := range wl.Queries {
		k := structKey(q)
		p, ok := index[k]
		if !ok {
			p = int32(len(in.reqs))
			index[k] = p
			in.reqs = append(in.reqs, request{q: q})
		}
		drawn[i] = p
	}
	rng := rand.New(rand.NewSource(seed))
	in.order = make([]int32, n)
	for i := range in.order {
		in.order[i] = drawn[rng.Intn(n)]
	}
	return nil
}

func (in *inputs) genTypeA(dist workload.Dist, seed int64) error {
	wl, err := workload.TypeA(in.dataset, workload.TypeAConfig{
		Queries: in.slots, GraphDist: dist, NodeDist: dist, Seed: seed,
	})
	if err != nil {
		return err
	}
	in.reqs = make([]request, in.slots)
	for i, q := range wl.Queries {
		in.reqs[i] = request{q: q}
	}
	return nil
}

// genScan is TypeA uniform/uniform with every 10th slot replaced by a
// supergraph query: a dataset graph plus three extra vertices, so its
// answer holds at least that graph.
func (in *inputs) genScan(seed int64) error {
	if err := in.genTypeA(workload.Uniform, seed); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5ca9))
	for i := 9; i < in.slots; i += 10 {
		g := in.dataset[rng.Intn(len(in.dataset))]
		b := graph.NewBuilder()
		for v := 0; v < g.NumVertices(); v++ {
			b.AddVertex(g.Label(v))
		}
		for _, e := range g.EdgeList() {
			b.AddEdge(int(e.U), int(e.V))
		}
		for x := 0; x < 3; x++ {
			anchor := rng.Intn(b.NumVertices())
			v := b.AddVertex(g.Label(rng.Intn(g.NumVertices())))
			b.AddEdge(anchor, v)
		}
		q, err := b.Build()
		if err != nil {
			return fmt.Errorf("supergraph query %d: %w", i, err)
		}
		in.reqs[i] = request{q: q, super: true}
	}
	return nil
}

// delLag is how many ADDs separate a graph's insertion from its deletion
// (9 batches): far enough that the ADD is acknowledged long before the DEL
// that names its id is generated, even when a batch stalls on fsync.
const delLag = 4

// genBatches builds n update batches that always apply. Each holds four
// edge toggles on four distinct existing graphs (a graph's tracked edge
// alternates UA, UR, UA, …; the toggle pool is walked cyclically, so a graph
// recurs only every len(pool)/4 batches and neighbouring batches touch
// disjoint graphs) plus one ADD (even batches: a clone of an initial graph)
// or one DEL (odd batches: the graph added delLag ADDs earlier, whose id is
// known because ADD ids are assigned densely in batch order). Nothing ever
// names a graph a concurrent neighbour batch may be changing, so two
// clients can submit adjacent batches in either order.
func genBatches(ds []*graph.Graph, n int, seed int64, wire bool) []batch {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(ds))
	early := perm[:delLag] // DEL targets before any added graph is old enough
	type toggle struct {
		u, v    int
		present bool
	}
	toggles := map[int]*toggle{}
	var pool []int
	for _, id := range perm[delLag:] {
		g := ds[id]
		var t *toggle
		for tries := 0; t == nil && g.NumVertices() >= 2 && tries < 32; tries++ {
			u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
			if u != v && !g.HasEdge(u, v) {
				t = &toggle{u: u, v: v}
			}
		}
		if t == nil && g.NumEdges() > 0 {
			e := g.EdgeList()[rng.Intn(g.NumEdges())]
			t = &toggle{u: int(e.U), v: int(e.V), present: true}
		}
		if t != nil {
			toggles[id] = t
			pool = append(pool, id)
		}
	}
	out := make([]batch, n)
	for k := range out {
		ops := make([]gcplus.UpdateOp, 0, opsPerBatch)
		for x := 0; x < opsPerBatch-1; x++ {
			id := pool[(k*(opsPerBatch-1)+x)%len(pool)]
			t := toggles[id]
			if t.present {
				ops = append(ops, gcplus.NewRemoveEdgeOp(id, t.u, t.v))
			} else {
				ops = append(ops, gcplus.NewAddEdgeOp(id, t.u, t.v))
			}
			t.present = !t.present
		}
		switch j := k / 2; {
		case k%2 == 0:
			g := ds[perm[j%len(perm)]].Clone()
			g.SetName(fmt.Sprintf("add%d", j))
			ops = append(ops, gcplus.NewAddOp(g))
		case j < delLag:
			ops = append(ops, gcplus.NewDeleteOp(early[j]))
		default:
			ops = append(ops, gcplus.NewDeleteOp(len(ds)+j-delLag))
		}
		out[k].ops = ops
		if wire {
			out[k].wire = renderBatch(ops)
		}
	}
	return out
}

// renderBatch is the POST /update body for ops.
func renderBatch(ops []gcplus.UpdateOp) []byte {
	type wireOp struct {
		Op    string `json:"op"`
		Graph string `json:"graph,omitempty"`
		ID    *int   `json:"id,omitempty"`
		U     *int   `json:"u,omitempty"`
		V     *int   `json:"v,omitempty"`
	}
	wops := make([]wireOp, len(ops))
	for i := range ops {
		op := &ops[i]
		wops[i].Op = op.Type.String()
		switch op.Type {
		case dataset.OpAdd:
			wops[i].Graph = string(graph.Marshal(op.Graph))
		case dataset.OpDelete:
			wops[i].ID = &op.GraphID
		default:
			wops[i].ID, wops[i].U, wops[i].V = &op.GraphID, &op.U, &op.V
		}
	}
	body, err := json.Marshal(map[string]any{"ops": wops})
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return body
}

// structKey identifies a graph up to its name: labels then edges.
func structKey(g *graph.Graph) string {
	buf := binary.AppendUvarint(nil, uint64(g.NumVertices()))
	for _, l := range g.Labels() {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	for _, e := range g.EdgeList() {
		buf = binary.AppendUvarint(buf, uint64(e.U))
		buf = binary.AppendUvarint(buf, uint64(e.V))
	}
	return string(buf)
}

// streamDigest folds the first slots of the request stream and every batch
// into one number; equal seeds must give equal digests.
func (in *inputs) streamDigest() uint64 {
	h := fnv.New64a()
	n := in.slots
	if n > 1<<14 {
		n = 1 << 14
	}
	for i := 0; i < n; i++ {
		r := in.req(i)
		h.Write([]byte(r.kindName()))
		h.Write([]byte(structKey(r.q)))
	}
	for i := range in.batches {
		for _, op := range in.batches[i].ops {
			fmt.Fprintf(h, "%s %d %d %d;", op.Type, op.GraphID, op.U, op.V)
			if op.Graph != nil {
				h.Write([]byte(structKey(op.Graph)))
			}
		}
	}
	return h.Sum64()
}
