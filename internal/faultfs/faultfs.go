// Package faultfs wraps a persist.FS with deterministic fault
// injection: write/fsync/rename/open errors, torn (short) writes and
// latency spikes, scheduled per path pattern and drawn from a seeded
// RNG so a chaos run replays bit-identically from its seed. Every
// injected fault is recorded in an event log that chaos harnesses dump
// as the "fault schedule" artifact next to their results.
//
// The wrapper injects failures at the persist layer's filesystem seam,
// so the serving stack above it exercises its real retry, poisoning,
// rotation and recovery paths against faults that behave like the
// storage failures they imitate (a torn write really leaves a short
// frame on disk; a failed fsync really leaves durability unknown).
package faultfs

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"gcplus/internal/persist"
	"gcplus/internal/randx"
)

// ErrInjected is the default error returned by a firing rule, wrapped
// so callers can both detect injection (errors.Is) and see which rule
// fired (the Error string).
var ErrInjected = errors.New("faultfs: injected fault")

// Op names a filesystem operation a Rule can target.
type Op string

const (
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpTruncate Op = "truncate"
	OpOpen     Op = "open"
	OpRead     Op = "read"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
)

// Rule is one entry in a fault schedule. A rule matches a call when
// the operation equals Op and the path contains Path (empty matches
// every path). Matching calls are counted; the rule skips the first
// After of them, then fires with probability Prob (0 means always) on
// each subsequent match, at most Count times (0 means unlimited).
//
// A firing rule sleeps Delay (latency spike), then — unless it is
// delay-only (Err == nil and Torn == 0 and DelayOnly) — fails the call
// with Err (ErrInjected when nil). For OpWrite, Torn > 0 first lets a
// short prefix of min(Torn, len(p)) bytes through to the underlying
// file, leaving a genuinely torn frame for recovery to find.
type Rule struct {
	ID        string        // label in the event log (defaults to "op:path")
	Path      string        // substring the path must contain ("" = any)
	Op        Op            // operation to intercept
	After     int           // skip the first N matching calls
	Count     int           // fire at most N times (0 = unlimited)
	Prob      float64       // per-match fire probability (0 = always)
	Err       error         // injected error (nil = ErrInjected)
	Torn      int           // OpWrite: bytes written before the failure
	Delay     time.Duration // sleep before acting
	DelayOnly bool          // sleep but let the call succeed
}

func (r *Rule) label() string {
	if r.ID != "" {
		return r.ID
	}
	return string(r.Op) + ":" + r.Path
}

// Event records one fired rule.
type Event struct {
	Seq   int           `json:"seq"`
	Rule  string        `json:"rule"`
	Op    Op            `json:"op"`
	Path  string        `json:"path"`
	Err   string        `json:"err,omitempty"`
	Torn  int           `json:"torn_bytes,omitempty"`
	Delay time.Duration `json:"delay_ns,omitempty"`
}

// ruleState pairs a Rule with its match/fire counters.
type ruleState struct {
	Rule
	matched int
	fired   int
}

// FS is a fault-injecting persist.FS. Safe for concurrent use; the
// rule engine is serialized under one mutex so the seeded RNG draws in
// a deterministic order for a single-threaded caller (concurrent
// callers interleave draws, which is still reproducible enough for
// probabilistic schedules and exactly reproducible for Prob-0 rules).
type FS struct {
	base persist.FS

	mu      sync.Mutex
	rng     *rand.Rand
	rules   []*ruleState
	events  []Event
	stopped bool
}

// New wraps base with the given fault schedule. The seed fixes every
// probabilistic draw.
func New(base persist.FS, seed int64, rules ...Rule) *FS {
	f := &FS{base: base, rng: randx.New(seed)}
	for i := range rules {
		f.rules = append(f.rules, &ruleState{Rule: rules[i]})
	}
	return f
}

// AddRule appends a rule to the schedule at runtime.
func (f *FS) AddRule(r Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &ruleState{Rule: r})
}

// Stop disables all injection (recovery phases run clean).
func (f *FS) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stopped = true
}

// Events returns a copy of the fired-fault log, in firing order.
func (f *FS) Events() []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Event, len(f.events))
	copy(out, f.events)
	return out
}

// check runs the rule engine for one call. It returns the injected
// error (nil when the call should proceed) and, for torn writes, how
// many bytes to let through first (-1 = not torn).
func (f *FS) check(op Op, path string) (error, int) {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return nil, -1
	}
	var (
		fire  *ruleState
		delay time.Duration
	)
	for _, rs := range f.rules {
		if rs.Op != op || !strings.Contains(path, rs.Path) {
			continue
		}
		rs.matched++
		if rs.matched <= rs.After {
			continue
		}
		if rs.Count > 0 && rs.fired >= rs.Count {
			continue
		}
		if rs.Prob > 0 && f.rng.Float64() >= rs.Prob {
			continue
		}
		rs.fired++
		fire = rs
		delay = rs.Delay
		break
	}
	if fire == nil {
		f.mu.Unlock()
		return nil, -1
	}
	ev := Event{Seq: len(f.events) + 1, Rule: fire.label(), Op: op, Path: path, Delay: delay}
	torn := -1
	var err error
	if !fire.DelayOnly {
		err = fire.Err
		if err == nil {
			err = ErrInjected
		}
		if op == OpWrite && fire.Torn > 0 {
			torn = fire.Torn
			ev.Torn = torn
		}
		ev.Err = err.Error()
	}
	f.events = append(f.events, ev)
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return err, torn
}

// --- persist.FS implementation ---

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	if err, _ := f.check(OpOpen, name); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, path: name}, nil
}

func (f *FS) Open(name string) (persist.File, error) {
	if err, _ := f.check(OpOpen, name); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	file, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, path: name}, nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	if err, _ := f.check(OpRead, name); err != nil {
		return nil, &os.PathError{Op: "read", Path: name, Err: err}
	}
	return f.base.ReadFile(name)
}

func (f *FS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if err, torn := f.check(OpWrite, name); err != nil {
		if torn > 0 && torn < len(data) {
			f.base.WriteFile(name, data[:torn], perm)
		}
		return &os.PathError{Op: "write", Path: name, Err: err}
	}
	return f.base.WriteFile(name, data, perm)
}

func (f *FS) Rename(oldpath, newpath string) error {
	if err, _ := f.check(OpRename, newpath); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if err, _ := f.check(OpRemove, name); err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	return f.base.Remove(name)
}

func (f *FS) RemoveAll(path string) error {
	if err, _ := f.check(OpRemove, path); err != nil {
		return &os.PathError{Op: "removeall", Path: path, Err: err}
	}
	return f.base.RemoveAll(path)
}

func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	return f.base.MkdirAll(path, perm)
}

func (f *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	return f.base.ReadDir(name)
}

// faultFile interposes the rule engine on the write-side file ops. The
// read side passes through: chaos schedules target the durability
// path, and failing reads would only re-test ReadFile's error plumbing.
type faultFile struct {
	fs   *FS
	f    persist.File
	path string
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }

func (ff *faultFile) Write(p []byte) (int, error) {
	if err, torn := ff.fs.check(OpWrite, ff.path); err != nil {
		n := 0
		if torn > 0 {
			if torn > len(p) {
				torn = len(p)
			}
			// Torn write: the prefix really lands in the file, so a
			// later recovery scan finds a genuinely short frame.
			n, _ = ff.f.Write(p[:torn])
		}
		return n, &os.PathError{Op: "write", Path: ff.path, Err: err}
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.f.Seek(offset, whence)
}

func (ff *faultFile) Close() error { return ff.f.Close() }

func (ff *faultFile) Sync() error {
	if err, _ := ff.fs.check(OpSync, ff.path); err != nil {
		return &os.PathError{Op: "sync", Path: ff.path, Err: err}
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if err, _ := ff.fs.check(OpTruncate, ff.path); err != nil {
		return &os.PathError{Op: "truncate", Path: ff.path, Err: err}
	}
	return ff.f.Truncate(size)
}
