package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gcplus/internal/changeplan"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 1000)}
	var buf []byte
	for _, p := range payloads {
		buf = wire.AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		got, next, err := wire.NextFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
		rest = next
	}
	if _, _, err := wire.NextFrame(rest); err == nil || len(rest) != 0 {
		t.Fatalf("want clean EOF at end, got rest=%d", len(rest))
	}
}

// TestFrameTornTruncation checks that every strict prefix of a valid
// frame stream decodes to a prefix of the frames plus a torn tail —
// never garbage, never an intact phantom frame.
func TestFrameTornTruncation(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), []byte("bb"), []byte("the third payload")}
	var full []byte
	ends := []int{}
	for _, p := range payloads {
		full = wire.AppendFrame(full, p)
		ends = append(ends, len(full))
	}
	for cut := 0; cut < len(full); cut++ {
		data := full[:cut]
		var got int
		for {
			payload, rest, err := wire.NextFrame(data)
			if err != nil {
				break
			}
			if !bytes.Equal(payload, payloads[got]) {
				t.Fatalf("cut %d: frame %d corrupted", cut, got)
			}
			got++
			data = rest
		}
		wantIntact := 0
		for _, e := range ends {
			if cut >= e {
				wantIntact++
			}
		}
		if got != wantIntact {
			t.Fatalf("cut %d: decoded %d frames, want %d", cut, got, wantIntact)
		}
	}
	// Flip one payload byte: CRC must reject the frame.
	corrupt := append([]byte(nil), full...)
	corrupt[wire.HeaderSize] ^= 0x01
	if _, _, err := wire.NextFrame(corrupt); err == nil {
		t.Fatal("corrupted frame passed its CRC")
	}
}

func TestWALAppendReadTruncate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-0.log")
	w, err := CreateWAL(path, 3, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	base, frames, end, torn, err := ReadWALFile(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if base != 7 || torn || len(frames) != 3 {
		t.Fatalf("base=%d torn=%v frames=%d, want 7/false/3", base, torn, len(frames))
	}
	fi, _ := os.Stat(path)
	if end != fi.Size() {
		t.Fatalf("end %d != file size %d", end, fi.Size())
	}

	// Simulate a torn tail and verify the intact prefix plus the
	// truncation offset survive, and appending after truncation works.
	if err := os.Truncate(path, frames[2].End-1); err != nil {
		t.Fatal(err)
	}
	_, frames2, end2, torn2, err := ReadWALFile(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !torn2 || len(frames2) != 2 || end2 != frames[1].End {
		t.Fatalf("after tear: torn=%v frames=%d end=%d, want true/2/%d", torn2, len(frames2), end2, frames[1].End)
	}
	w2, err := OpenWALAppend(path, 3, end2, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("four")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, frames3, _, torn3, err := ReadWALFile(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if torn3 || len(frames3) != 3 || string(frames3[2].Payload) != "four" {
		t.Fatalf("after re-append: torn=%v frames=%d", torn3, len(frames3))
	}

	// Wrong shard: loud structural error.
	if _, _, _, _, err := ReadWALFile(path, 4); err == nil {
		t.Fatal("WAL for shard 3 accepted as shard 4")
	}
}

// TestWALPoisonedAfterFailedAppend pins the acknowledged-batch-loss
// guard: once an append fails, the segment refuses further appends
// (instead of writing past a possibly-torn frame that recovery would
// truncate, discarding acknowledged batches behind it).
func TestWALPoisonedAfterFailedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0.log")
	w, err := CreateWAL(path, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	goodSize := w.Size()
	w.f.Close() // force the next write to fail
	if err := w.Append([]byte("fails")); err == nil {
		t.Fatal("append on a closed file succeeded")
	}
	if err := w.Append([]byte("after")); err == nil {
		t.Fatal("poisoned WAL accepted an append")
	}
	if w.Size() != goodSize {
		t.Fatalf("size advanced past the last intact frame: %d vs %d", w.Size(), goodSize)
	}
	// The intact prefix is still recoverable.
	_, frames, _, _, err := ReadWALFile(path, 0)
	if err != nil || len(frames) != 1 || string(frames[0].Payload) != "good" {
		t.Fatalf("intact prefix lost: %v, %d frames", err, len(frames))
	}
}

func testGraph(name string) *graph.Graph {
	b := graph.NewBuilder()
	b.SetName(name)
	b.AddVertex(1)
	b.AddVertex(2)
	b.AddVertex(1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, _ := b.Build()
	return g
}

func TestWALBatchRoundTrip(t *testing.T) {
	batch := &WALBatch{
		Epoch: 42,
		Ops: []WALOp{
			{Op: changeplan.AddOp(testGraph("added")), GlobalID: 17},
			{Op: changeplan.DeleteOp(3), GlobalID: 12},
			{Op: changeplan.AddEdgeOp(2, 0, 1), GlobalID: 9},
			{Op: changeplan.RemoveEdgeOp(1, 1, 2), GlobalID: 5},
		},
	}
	payload, err := EncodeWALBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWALBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != batch.Epoch || len(got.Ops) != len(batch.Ops) {
		t.Fatalf("epoch/ops mismatch: %+v", got)
	}
	for i, op := range got.Ops {
		want := batch.Ops[i]
		if op.GlobalID != want.GlobalID || op.Op.Type != want.Op.Type ||
			op.Op.GraphID != want.Op.GraphID || op.Op.U != want.Op.U || op.Op.V != want.Op.V {
			t.Fatalf("op %d: got %+v want %+v", i, op, want)
		}
	}
	g := got.Ops[0].Op.Graph
	if g == nil || g.Name() != "added" || g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("ADD graph did not round-trip: %v", g)
	}
	// Empty batch (untouched shard) round-trips too.
	empty, err := EncodeWALBatch(&WALBatch{Epoch: 7})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeWALBatch(empty)
	if err != nil || back.Epoch != 7 || len(back.Ops) != 0 {
		t.Fatalf("empty batch: %v %+v", err, back)
	}
	// Trailing garbage is rejected.
	if _, err := DecodeWALBatch(append(payload, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestShardSnapshotRoundTrip(t *testing.T) {
	snap := &ShardSnapshot{
		Epoch: 9,
		Dataset: &dataset.Snapshot{
			Graphs: []*graph.Graph{testGraph("g0"), nil, testGraph("g2")}, // id 1 deleted
			Seq:    13,
		},
		LocalToGlobal: []int{0, 4, 8},
	}
	payload, err := EncodeShardSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeShardSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 9 || got.Dataset.Seq != 13 || len(got.Dataset.Graphs) != 3 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Dataset.Graphs[1] != nil || got.Dataset.Graphs[0].Name() != "g0" || got.Dataset.Graphs[2].Name() != "g2" {
		t.Fatal("dataset graphs did not round-trip")
	}
	if len(got.LocalToGlobal) != 3 || got.LocalToGlobal[1] != 4 {
		t.Fatalf("localToGlobal: %v", got.LocalToGlobal)
	}
	// Trailing garbage is rejected.
	if _, err := DecodeShardSnapshot(append(payload, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestSnapshotFileAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap-0.snap")
	payload := []byte("snapshot payload")
	if err := WriteSnapshotFile(path, 1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path, 1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round-trip: %v", err)
	}
	if _, err := ReadSnapshotFile(path, 2); err == nil {
		t.Fatal("snapshot for shard 1 accepted as shard 2")
	}
	// A truncated file (torn rename never happens, but disk corruption
	// can) is rejected, not half-read.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(path, 1); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// No stray tmp files.
	m, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(m) != 0 {
		t.Fatalf("stray tmp files: %v", m)
	}
}

func TestStoreLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.HasState() || HasState(dir) {
		t.Fatal("fresh store claims state")
	}
	// The META file records the layout from creation on, even before
	// any snapshot exists.
	if n, ok := StateShards(dir); !ok || n != 2 {
		t.Fatalf("StateShards = (%d, %v), want (2, true)", n, ok)
	}
	// Complete generation at 4 on both shards, plus an incomplete one
	// at 9 (shard 0 only) — discovery must pick 4 and list 9 nowhere.
	for shard := 0; shard < 2; shard++ {
		if err := WriteSnapshotFile(s.SnapshotPath(shard, 4), shard, []byte("gen4")); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteSnapshotFile(s.SnapshotPath(0, 9), 0, []byte("gen9")); err != nil {
		t.Fatal(err)
	}
	if !s.HasState() || !HasState(dir) {
		t.Fatal("store with snapshots claims no state")
	}
	gens := s.CompleteSnapshotEpochs()
	if len(gens) != 1 || gens[0] != 4 {
		t.Fatalf("complete generations: %v, want [4]", gens)
	}
	// WAL segments and byte accounting.
	w, err := CreateWAL(s.WALPath(0, 4), 0, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("frame")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if segs := s.WALSegments(0); len(segs) != 1 || segs[0] != 4 {
		t.Fatalf("segments: %v", segs)
	}
	// Cleanup drops strictly older generations only.
	s.RemoveObsolete(9)
	if got := s.CompleteSnapshotEpochs(); len(got) != 0 {
		t.Fatalf("generation 4 should be gone, have %v", got)
	}
	if segs := s.WALSegments(0); len(segs) != 0 {
		t.Fatalf("segment 4 should be gone, have %v", segs)
	}
	// A store is not portable across shard counts (the lock also blocks
	// these, but the count mismatch is checked for unlocked reopens).
	if _, err := OpenStore(dir, 1); err == nil {
		t.Fatal("2-shard store opened with 1 shard")
	}
	if _, err := OpenStore(dir, 4); err == nil {
		t.Fatal("2-shard store opened with 4 shards")
	}
	s.Close()
	if _, err := OpenStore(dir, 4); err == nil {
		t.Fatal("2-shard store opened with 4 shards after unlock")
	}
}

// TestStorePartialFirstGeneration pins the first-boot crash semantics:
// a partial generation (files in only a prefix of the shard dirs) is
// not recoverable state — HasState stays false, the shard count stays
// authoritative from META, and the next OpenStore clears the debris.
func TestStorePartialFirstGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-generation: only shards 0 and 1 got their files.
	for shard := 0; shard < 2; shard++ {
		if err := WriteSnapshotFile(s.SnapshotPath(shard, 0), shard, []byte("partial")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if HasState(dir) {
		t.Fatal("partial generation counted as recoverable state")
	}
	if n, ok := StateShards(dir); !ok || n != 4 {
		t.Fatalf("StateShards = (%d, %v), want (4, true) — prefix dirs must not shrink the count", n, ok)
	}
	// Reopening clears the debris and the store cold-starts cleanly.
	s2, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for shard := 0; shard < 2; shard++ {
		if _, err := os.Stat(s2.SnapshotPath(shard, 0)); err == nil {
			t.Fatalf("shard %d debris survived reopen", shard)
		}
	}
}

// TestStoreLock pins single-process ownership: a data directory cannot
// be opened twice concurrently, and the lock releases on Close.
func TestStoreLock(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, 1); err == nil {
		t.Fatal("second concurrent open succeeded")
	}
	s1.Close()
	s2, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

// OpenWALAppend is OpenWALAppendFS on the OS filesystem.
func OpenWALAppend(path string, shard int, truncAt int64, sync bool) (*WAL, error) {
	return OpenWALAppendFS(OSFS, path, shard, truncAt, sync)
}

// WriteSnapshotFile is WriteSnapshotFileFS on the OS filesystem.
func WriteSnapshotFile(path string, shard int, payload []byte) error {
	return WriteSnapshotFileFS(OSFS, path, shard, payload)
}

// ReadSnapshotFile is ReadSnapshotFileFS on the OS filesystem.
func ReadSnapshotFile(path string, shard int) ([]byte, error) {
	return ReadSnapshotFileFS(OSFS, path, shard)
}
