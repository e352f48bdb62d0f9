package cache

import (
	"fmt"
	"sort"
)

// Model selects the cache-consistency model of §5.
type Model uint8

const (
	// ModelCON keeps the cache across dataset changes and refreshes
	// per-entry validity indicators (§5.2). The paper's headline model.
	ModelCON Model = iota
	// ModelEVI evicts cache and window on any dataset change (§5.1).
	ModelEVI
)

// String returns "CON" or "EVI".
func (m Model) String() string {
	if m == ModelEVI {
		return "EVI"
	}
	return "CON"
}

// ParseModel converts "CON"/"EVI" to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "CON":
		return ModelCON, nil
	case "EVI":
		return ModelEVI, nil
	}
	return 0, fmt.Errorf("cache: unknown model %q (want CON or EVI)", s)
}

// Config sizes and parameterizes a Cache. The defaults mirror §7.1: cache
// capacity 100, window 20, HD replacement.
type Config struct {
	// Capacity is the maximum number of admitted entries (default 100).
	Capacity int
	// WindowSize is the admission window length (default 20).
	WindowSize int
	// Model is the consistency model (default CON).
	Model Model
	// Policy is the replacement policy (default HD).
	Policy Policy
	// StrictInvalidation disables Algorithm 2's UA/UR-exclusive survival
	// rules: every logged operation invalidates its graph's bit in every
	// entry. Used by the validity-optimization ablation; always sound,
	// strictly less effective.
	StrictInvalidation bool
	// RepairQueue bounds the queue of invalidated (entry, graph) pairs
	// collected by Validate for background repair. 0 (the default)
	// disables collection entirely; when the queue is full further pairs
	// are dropped (and counted) rather than blocking the validator.
	RepairQueue int
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 100
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 20
	}
	if c.Policy == "" {
		c.Policy = PolicyHD
	}
	return c
}

// Validate rejects configurations that name an unknown replacement
// policy or consistency model. Zero values are fine (withDefaults fills
// them); the point is that a mistyped Policy fails loudly here instead
// of silently scoring like PIN at the first eviction. core.NewRuntime
// calls it and returns the error; New panics on it, so no invalid
// configuration can reach scoreAll either way.
func (c Config) Validate() error {
	switch c.Policy {
	case "", PolicyPIN, PolicyPINC, PolicyHD, PolicyLRU, PolicyLFU:
	default:
		return fmt.Errorf("cache: unknown policy %q (want PIN, PINC, HD, LRU or LFU)", c.Policy)
	}
	if c.Model != ModelCON && c.Model != ModelEVI {
		return fmt.Errorf("cache: unknown model %d (want ModelCON or ModelEVI)", c.Model)
	}
	return nil
}

// Cache holds admitted entries plus the admission window. It is not
// safe for concurrent mutation; GC+'s runtime serializes access (the
// paper's concurrent admission is modelled synchronously for determinism).
type Cache struct {
	cfg        Config
	entries    []*Entry
	window     []*Entry
	nextID     int
	clock      int64
	appliedSeq uint64

	// rel is the query-to-query relation graph that lets a repeated
	// query replay its hits (see relations.go).
	rel relationGraph
	// slots holds the live entries by slot; freeSlots recycles slots of
	// evicted entries so relation bitsets stay small.
	slots     []*Entry
	freeSlots []int
	// repairQ is the bounded FIFO of invalidated pairs awaiting repair.
	repairQ []RepairTask

	// lifetime counters for reports
	admitted      int64
	evicted       int64
	purges        int64
	validates     int64
	repairedBits  int64
	repairDropped int64
}

// New builds an empty cache. It panics on an invalid configuration
// (unknown policy or model); callers that want an error instead should
// run Config.Validate first, as core.NewRuntime does.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{cfg: cfg}
}

// Config returns the effective configuration.
func (c *Cache) Config() Config { return c.cfg }

// Model returns the configured consistency model.
func (c *Cache) Model() Model { return c.cfg.Model }

// Size returns the number of admitted (post-window) entries.
func (c *Cache) Size() int { return len(c.entries) }

// WindowLen returns the number of entries waiting in the window.
func (c *Cache) WindowLen() int { return len(c.window) }

// AppliedSeq returns the dataset log sequence number the cache contents
// reflect.
func (c *Cache) AppliedSeq() uint64 { return c.appliedSeq }

// SetAppliedSeq records seq as reflected. Used with Purge by the EVI
// model, where clearing the cache trivially reconciles any log suffix,
// and to start an empty cache over a dataset that already has history.
func (c *Cache) SetAppliedSeq(seq uint64) { c.appliedSeq = seq }

// Tick advances and returns the logical clock used for recency.
func (c *Cache) Tick() int64 {
	c.clock++
	return c.clock
}

// Now returns the current logical time.
func (c *Cache) Now() int64 { return c.clock }

// ForEach visits every entry usable for hits — window first (most recent
// knowledge), then admitted entries. Return false to stop.
func (c *Cache) ForEach(fn func(*Entry) bool) {
	for _, e := range c.window {
		if !fn(e) {
			return
		}
	}
	for _, e := range c.entries {
		if !fn(e) {
			return
		}
	}
}

// Add places a freshly executed query into the admission window
// (§4: queries are batched in the Window store before entering cache).
// When the window fills up it is flushed into the cache, triggering
// replacement if capacity is exceeded. Entries must already carry answer,
// validity and seq per NewEntry.
//
// Add records no query-to-query relations, which permanently disables
// the repeated-query replay path for this cache — it exists
// for cache-level tests. The runtime admits via AddWithRelations.
func (c *Cache) Add(e *Entry) { c.AddWithRelations(e, nil, nil) }

// AddWithRelations is Add plus the hit classification of e.Query
// against the current cache contents: containing holds the live
// same-kind entries whose queries contain e.Query, contained those it
// contains (an isomorphic entry would belong to both, but the runtime
// never admits alongside one — it refreshes instead). The relation graph
// memoizes the relations so a later query isomorphic to e.Query reads
// its hits instead of re-deriving them (ForEachRelated). Passing nil
// slices means the relations are unknown; pass empty non-nil slices for
// a query with no hits.
func (c *Cache) AddWithRelations(e *Entry, containing, contained []*Entry) {
	e.ID = c.nextID
	c.nextID++
	if e.LastUsed == 0 {
		e.LastUsed = c.Tick()
	}
	c.assignSlot(e)
	c.rel.addEntry(e, containing, contained)
	c.window = append(c.window, e)
	if len(c.window) >= c.cfg.WindowSize {
		c.flushWindow()
	}
}

// flushWindow moves the window into the cache and evicts down to capacity
// using the configured policy. Entries keep their slots across the move,
// so the relation graph does not change.
func (c *Cache) flushWindow() {
	c.entries = append(c.entries, c.window...)
	c.admitted += int64(len(c.window))
	c.window = c.window[:0]
	c.evictToCapacity()
}

func (c *Cache) evictToCapacity() {
	over := len(c.entries) - c.cfg.Capacity
	if over <= 0 {
		return
	}
	scores := c.cfg.Policy.scoreAll(c.entries, c.RValues())
	// Evict the `over` lowest-scored entries; ties break towards older
	// IDs so runs are reproducible.
	idx := make([]int, len(c.entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if scores[ia] != scores[ib] {
			return scores[ia] < scores[ib]
		}
		return c.entries[ia].ID < c.entries[ib].ID
	})
	drop := make(map[int]bool, over)
	for _, i := range idx[:over] {
		drop[i] = true
	}
	kept := c.entries[:0]
	for i, e := range c.entries {
		if !drop[i] {
			kept = append(kept, e)
		} else {
			c.releaseEntry(e)
		}
	}
	// Zero the tail so evicted entries can be collected.
	for i := len(kept); i < len(c.entries); i++ {
		c.entries[i] = nil
	}
	c.entries = kept
	c.evicted += int64(over)
}

// Purge drops every entry and the window — the EVI model's response to
// any dataset change (§5.1: "Cache Validator then clears cached contents
// indiscriminately").
func (c *Cache) Purge() {
	for _, e := range c.entries {
		c.releaseEntry(e)
	}
	for _, e := range c.window {
		c.releaseEntry(e)
	}
	c.entries = nil
	c.window = nil
	c.repairQ = nil // queued pairs refer to dead entries only
	c.purges++
}

// NoteValidation counts a CON validation sweep (for overhead reports).
func (c *Cache) NoteValidation() { c.validates++ }

// Counters reports lifetime admission/eviction/purge/validation counts.
func (c *Cache) Counters() (admitted, evicted, purges, validates int64) {
	return c.admitted, c.evicted, c.purges, c.validates
}

// Stats is a point-in-time snapshot of a cache's state and lifetime
// counters. Serving front-ends report one Stats per shard-local cache
// (the /stats endpoint of cmd/gcserve); all fields are plain values so
// the snapshot serializes to JSON without exposing the live cache.
type Stats struct {
	// Entries is the number of admitted (post-window) entries.
	Entries int `json:"entries"`
	// Window is the number of entries waiting in the admission window.
	Window int `json:"window"`
	// Capacity is the configured maximum number of admitted entries.
	Capacity int `json:"capacity"`
	// Model is the consistency model ("CON" or "EVI").
	Model string `json:"model"`
	// Policy is the replacement policy name.
	Policy string `json:"policy"`
	// Admitted, Evicted, Purges and Validations are lifetime counters.
	Admitted    int64 `json:"admitted"`
	Evicted     int64 `json:"evicted"`
	Purges      int64 `json:"purges"`
	Validations int64 `json:"validations"`
	// PendingRepairs is the current length of the repair queue.
	PendingRepairs int `json:"pending_repairs"`
	// RepairedBits counts validity bits restored by the repair pipeline.
	RepairedBits int64 `json:"repaired_bits"`
	// RepairDropped counts invalidated pairs dropped on a full queue.
	RepairDropped int64 `json:"repair_dropped"`
	// AppliedSeq is the dataset log sequence number the contents reflect.
	AppliedSeq uint64 `json:"applied_seq"`
}

// Stats snapshots the cache state and lifetime counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Entries:        len(c.entries),
		Window:         len(c.window),
		Capacity:       c.cfg.Capacity,
		Model:          c.cfg.Model.String(),
		Policy:         string(c.cfg.Policy),
		Admitted:       c.admitted,
		Evicted:        c.evicted,
		Purges:         c.purges,
		Validations:    c.validates,
		PendingRepairs: len(c.repairQ),
		RepairedBits:   c.repairedBits,
		RepairDropped:  c.repairDropped,
		AppliedSeq:     c.appliedSeq,
	}
}

// RValues snapshots the R statistic of all admitted and windowed entries;
// the HD policy derives its variability signal from this distribution.
func (c *Cache) RValues() []float64 {
	out := make([]float64, 0, len(c.entries)+len(c.window))
	for _, e := range c.entries {
		out = append(out, e.R)
	}
	for _, e := range c.window {
		out = append(out, e.R)
	}
	return out
}
