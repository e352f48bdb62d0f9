// Package trace is GC+'s dependency-free distributed-tracing core: a
// span model with trace and span ids, parent links and a bounded
// attribute list; a deterministic head sampler; and a bounded in-memory
// store with tail-based retention that always keeps anomalous traces
// (slow, error, shed, deadline-exceeded, degraded-mode) no matter how
// fast normal traffic churns the ring.
//
// The model is deliberately small, and one process builds every trace:
// the router opens a root span per request, times its own stages, and
// synthesizes each shard's stage spans — queue wait, plan, consistency,
// hit discovery, verify — from the QueryStats the shard's reply carries
// over any transport. Nothing here crosses the wire, so the local and
// loopback transports produce identically-shaped traces by
// construction.
package trace

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
)

// ID identifies one trace; SpanID one span within it. Both are nonzero
// for real traces — zero means "no trace".
type ID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the id the way exemplars and /debug/traces spell it:
// 16 lowercase hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the 16-hex-digit rendering back into an ID.
func ParseID(s string) (ID, bool) {
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return ID(v), true
}

// Attr is one string key/value annotation on a span (hit class,
// plan-cache verdict, degradation rung, error stage, ...).
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// MaxAttrs bounds a span's attribute list: a span can never grow past
// it no matter how chatty a stage is, so a trace's memory is O(spans).
const MaxAttrs = 16

// Span is one timed operation in a trace. Times are absolute unix
// nanoseconds; viewers subtract the trace root's start.
type Span struct {
	TraceID    ID
	ID         SpanID
	Parent     SpanID
	Name       string
	StartNanos int64 // unix nanoseconds
	DurNanos   int64
	Attrs      []Attr
}

// SetAttr appends one attribute, silently dropping it once MaxAttrs is
// reached (bounded spans beat complete spans on a serving hot path).
// The first attribute reserves room for the typical handful, so a
// span's annotations cost one allocation rather than one per growth.
func (s *Span) SetAttr(key, value string) {
	if len(s.Attrs) >= MaxAttrs {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make([]Attr, 0, 4)
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// Attr returns the value of the named attribute ("" when absent).
func (s *Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Id generation: a process-global counter mixed through splitmix64, so
// ids are unique within a process, well-distributed (usable as hash
// keys and exemplar labels), allocation-free and lock-free. Zero is
// reserved as "absent" and never produced.
var idGen atomic.Uint64

func nextID() uint64 {
	for {
		if v := splitmix64(idGen.Add(1)); v != 0 {
			return v
		}
	}
}

// NewTraceID returns a fresh nonzero trace id.
func NewTraceID() ID { return ID(nextID()) }

// NewSpanID returns a fresh nonzero span id.
func NewSpanID() SpanID { return SpanID(nextID()) }

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap
// bijective mixer turning a sequential counter into well-distributed
// 64-bit ids.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sampler is the deterministic head sampler behind -trace-sample-rate:
// a rate of r samples every round(1/r)-th query (counter-periodic, not
// random, so a seeded benchmark run samples the same queries every
// time). rate ≤ 0 never samples; rate ≥ 1 always samples.
type Sampler struct {
	period uint64 // 0 = never
	n      atomic.Uint64
}

// NewSampler builds a sampler for the given rate.
func NewSampler(rate float64) *Sampler {
	switch {
	case math.IsNaN(rate) || rate <= 0:
		return &Sampler{}
	case rate >= 1:
		return &Sampler{period: 1}
	}
	p := uint64(math.Round(1 / rate))
	if p < 1 {
		p = 1
	}
	return &Sampler{period: p}
}

// Sample reports whether the next unit of work should be traced.
func (s *Sampler) Sample() bool {
	if s.period == 0 {
		return false
	}
	if s.period == 1 {
		return true
	}
	return s.n.Add(1)%s.period == 1
}
