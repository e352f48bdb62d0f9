package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. Set exists so a
// serving layer can mirror a counter that is authoritatively tracked
// elsewhere (a shard-owned lifetime counter snapshotted at scrape time);
// callers must only ever Set monotonically non-decreasing values.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be ≥ 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Set overwrites the counter with a snapshot of its source.
func (c *Counter) Set(n int64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Labels name one instrument's label set, e.g. {"shard": "0"}. Labels
// are rendered sorted by name, so two equal maps always produce the
// same series identity.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// renderWith renders the label set with one extra pair appended (the
// histogram writer's le label).
func renderWith(rendered, name, value string) string {
	if rendered == "" {
		return "{" + name + `="` + value + `"}`
	}
	return rendered[:len(rendered)-1] + "," + name + `="` + value + `"}`
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// metric kinds, matching the Prometheus TYPE keywords.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// sample is one registered instrument under a family.
type sample struct {
	labels string // pre-rendered
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every sample sharing a metric name; HELP and TYPE are
// emitted once per family, as the exposition format requires.
type family struct {
	name    string
	help    string
	kind    string
	samples []*sample
}

// Registry holds registered instruments and renders them in the
// Prometheus text exposition format (version 0.0.4). Registration
// happens at boot; rendering may run concurrently with recording.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help, kind string) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

func (r *Registry) add(name, help, kind string, s *sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kind)
	for _, prev := range f.samples {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	f.samples = append(f.samples, s)
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.add(name, help, kindCounter, &sample{labels: labels.render(), c: c})
	return c
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.add(name, help, kindGauge, &sample{labels: labels.render(), g: g})
	return g
}

// Histogram registers and returns a new histogram series.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	h := NewHistogram()
	r.RegisterHistogram(name, help, labels, h)
	return h
}

// RegisterHistogram attaches an existing histogram (e.g. one owned by a
// runtime shard) to the registry under the given name and labels.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, h *Histogram) {
	r.add(name, help, kindHistogram, &sample{labels: labels.render(), h: h})
}

// WriteProm renders every registered family in the Prometheus text
// exposition format. Families appear in registration order, samples in
// registration order within a family.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.samples {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value()))
			case kindHistogram:
				les, cums, total, sum := s.h.promBuckets()
				for i, le := range les {
					fmt.Fprintf(&b, "%s_bucket%s %d",
						f.name, renderWith(s.labels, "le", formatFloat(le)), cums[i])
					writeExemplar(&b, s.h, i)
					b.WriteByte('\n')
				}
				fmt.Fprintf(&b, "%s_bucket%s %d", f.name, renderWith(s.labels, "le", "+Inf"), total)
				writeExemplar(&b, s.h, len(les))
				b.WriteByte('\n')
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, formatFloat(sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, total)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeExemplar appends the OpenMetrics exemplar suffix to a bucket
// line — ` # {trace_id="<16 hex>"} <value>` — when the histogram holds
// an exemplar for that exposition bucket.
func writeExemplar(b *strings.Builder, h *Histogram, slot int) {
	id, sec, ok := h.exemplar(slot)
	if !ok {
		return
	}
	fmt.Fprintf(b, ` # {trace_id="%016x"} %s`, id, formatFloat(sec))
}

// escapeHelp escapes a HELP string per the text exposition format:
// backslashes and newlines only (quotes stay literal in HELP lines).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, NaN/Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
