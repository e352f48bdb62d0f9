package trace

import (
	"sort"
	"sync"
)

// Anomaly classes for Trace.Anomaly. A trace carrying any of these is
// retained in the store's reserved anomalous ring, which normal traffic
// cannot evict — the tail-based half of the sampling story: the head
// sampler decides which healthy traces exist, tail retention guarantees
// the pathological ones survive to be read.
const (
	AnomalyNone     = ""
	AnomalySlow     = "slow"
	AnomalyError    = "error"
	AnomalyShed     = "shed"
	AnomalyDeadline = "deadline"
	AnomalyDegraded = "degraded"
)

// Trace is one assembled trace: the root's identity, wall-clock
// extent, anomaly class and every span collected across router and
// shards.
type Trace struct {
	ID         ID
	StartNanos int64 // unix nanoseconds of the root span's start
	WallNanos  int64
	Anomaly    string
	Spans      []Span
}

// entry stamps a trace with the store's insertion sequence so Snapshot
// can interleave the two rings newest-first without comparing clocks.
type entry struct {
	t   *Trace
	seq uint64
}

type ring struct {
	buf  []entry
	next int
	n    int
}

func (r *ring) add(e entry) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *ring) each(fn func(entry)) {
	for i := 0; i < r.n; i++ {
		fn(r.buf[(r.next-1-i+2*len(r.buf))%len(r.buf)])
	}
}

// DefaultStoreSize is the normal-ring capacity when the configuration
// leaves it zero (-trace-store-size).
const DefaultStoreSize = 256

// Store is the bounded in-memory trace store behind GET /debug/traces:
// a normal ring of size `size` for head-sampled healthy traces plus a
// reserved anomalous ring (a quarter of size, minimum 8) that only
// anomalous traces rotate through — so a flood of healthy traffic can
// never evict the slow/error/shed traces an operator is hunting.
type Store struct {
	mu   sync.Mutex
	norm ring
	anom ring
	seq  uint64
	adds uint64
}

// NewStore builds a store; size ≤ 0 means DefaultStoreSize.
func NewStore(size int) *Store {
	if size <= 0 {
		size = DefaultStoreSize
	}
	anomSize := size / 4
	if anomSize < 8 {
		anomSize = 8
	}
	return &Store{
		norm: ring{buf: make([]entry, size)},
		anom: ring{buf: make([]entry, anomSize)},
	}
}

// Add retains a trace; anomalous traces go to the reserved ring. The
// store takes ownership of t (callers must not mutate it afterwards).
func (s *Store) Add(t *Trace) {
	if t == nil || t.ID == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	s.adds++
	e := entry{t: t, seq: s.seq}
	if t.Anomaly != AnomalyNone {
		s.anom.add(e)
	} else {
		s.norm.add(e)
	}
}

// Get returns the retained trace with the given id, or nil.
func (s *Store) Get(id ID) *Trace {
	if id == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var found *Trace
	scan := func(e entry) {
		if found == nil && e.t.ID == id {
			found = e.t
		}
	}
	s.anom.each(scan)
	s.norm.each(scan)
	return found
}

// Snapshot returns every retained trace, newest first across both
// rings. The returned traces are shared; treat them as read-only.
func (s *Store) Snapshot() []*Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]entry, 0, s.norm.n+s.anom.n)
	s.norm.each(func(e entry) { out = append(out, e) })
	s.anom.each(func(e entry) { out = append(out, e) })
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	ts := make([]*Trace, len(out))
	for i, e := range out {
		ts[i] = e.t
	}
	return ts
}

// Added returns the lifetime count of retained traces (including ones
// since evicted) — the store's throughput counter for /debug/traces.
func (s *Store) Added() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adds
}
