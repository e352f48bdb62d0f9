package main

import (
	"fmt"
	"time"
)

// target is one way of reaching the system: the timed run drives the
// workload's boundary (facade or HTTP), and each ladder rung wraps one
// layer in the same interface so the replay loop and the answer checks are
// shared. Only the facade and HTTP targets are safe for concurrent clients;
// ladder rungs run one client.
type target interface {
	// Query answers r for load client c. Targets that must decode a
	// response to learn the answer may skip that when full is false.
	Query(c int, r *request, full bool) (answer, error)
	// Update applies b. Targets that apply the ops one call at a time
	// report each call's duration through perOp (which may be nil).
	Update(c int, b *batch, perOp func(op int, d time.Duration)) (ack, error)
	Close() error
}

// answer is a query's outcome plus the exact counts the layer returned.
type answer struct {
	ids   []int // ascending global graph ids
	epoch uint64
	// Method M tests executed and spared, |CS_M|, and hit-discovery work,
	// summed over shards; zeroTest reports no shard ran a sub-iso test.
	tests, saved, candidates  int
	hitCandidates, hitScanned int
	zeroTest                  bool
}

// ack is an acknowledged update batch.
type ack struct {
	epoch uint64
	ids   []int // per op: the id it targeted or was assigned
}

// opError reports an update op the system refused; the streams are built so
// that this never happens, so it counts as a failure.
type opError struct {
	op  int
	err string
}

func (e *opError) Error() string { return fmt.Sprintf("update op %d failed: %s", e.op, e.err) }
