package main

// Rung "graph": the text codec on the request body — graph.Parse is what
// POST /query pays before the router sees a graph, graph.Write what a
// client pays to build the body.
//
// Pins: graph.Parse, graph.Write.

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"time"

	"gcplus/internal/graph"
)

type graphRun struct {
	parseNS        []int64 // sorted
	allocsPerParse float64
}

func rungGraph(l *spanLog, c runConfig, in *inputs) *graphRun {
	run := &graphRun{parseNS: make([]int64, 0, c.w.replay)}
	parse := func(r *request) []*graph.Graph {
		gs, err := graph.Parse(bytes.NewReader(r.body))
		if err != nil || len(gs) != 1 {
			panic("benchmark rendered a body graph.Parse rejects") // a bug in this file, not an input
		}
		return gs
	}
	for i := 0; i < c.w.replay; i++ {
		r := in.req(c.w.warmup + i)
		r.render()
		t0 := time.Now()
		gs := parse(r)
		d := time.Since(t0)
		run.parseNS = append(run.parseNS, int64(d))
		l.add("graph", "parse", "http", i, t0, d)
		t0 = time.Now()
		_ = graph.Write(io.Discard, gs) // io.Discard cannot fail
		l.add("graph", "write", "http", i, t0, time.Since(t0))
	}
	// Allocations in a second pass with nothing else between the two reads.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < c.w.replay; i++ {
		parse(in.req(c.w.warmup + i))
	}
	runtime.ReadMemStats(&after)
	if c.w.replay > 0 {
		run.allocsPerParse = float64(after.Mallocs-before.Mallocs) / float64(c.w.replay)
	}
	slices.Sort(run.parseNS)
	return run
}
