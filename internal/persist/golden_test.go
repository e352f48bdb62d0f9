package persist

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gcplus/internal/changeplan"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
)

// Golden on-disk bytes: a WAL segment and a shard snapshot file, built
// from fixed inputs and compared byte for byte against testdata. A
// format change fails here first; regenerate deliberately with
//
//	go test ./internal/persist -run Golden -update
//
// and bump formatVersion if old files can no longer be read.
var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the %d golden bytes\n got %x\nwant %x", name, len(got), len(want), got, want)
	}
}

func goldenWALBatches() []*WALBatch {
	return []*WALBatch{
		{Epoch: 6, Ops: []WALOp{
			{Op: changeplan.AddOp(testGraph("added")), GlobalID: 17},
			{Op: changeplan.DeleteOp(3), GlobalID: 12},
			{Op: changeplan.AddEdgeOp(2, 0, 1), GlobalID: 9},
			{Op: changeplan.RemoveEdgeOp(1, 1, 2), GlobalID: 5},
		}},
		{Epoch: 7}, // a batch that did not touch the shard
	}
}

func goldenShardSnapshot() *ShardSnapshot {
	return &ShardSnapshot{
		Epoch: 9,
		Dataset: &dataset.Snapshot{
			Graphs: []*graph.Graph{testGraph("g0"), nil, testGraph("g2")},
			Seq:    13,
		},
		LocalToGlobal: []int{0, 4, 300},
	}
}

// TestGoldenWALFile pins a WAL segment: header, one batch with ADD,
// DEL, UA and UR ops, and one empty batch.
func TestGoldenWALFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-5.log")
	w, err := CreateWAL(path, 2, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	batches := goldenWALBatches()
	var payloads [][]byte
	for _, b := range batches {
		p, err := EncodeWALBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "wal.golden", data)

	// The committed file reads back into the same batches.
	base, frames, end, torn, err := ReadWALFile(filepath.Join("testdata", "wal.golden"), 2)
	if err != nil || base != 5 || torn || len(frames) != len(batches) || end != int64(len(data)) {
		t.Fatalf("read back: base=%d frames=%d end=%d torn=%v err=%v", base, len(frames), end, torn, err)
	}
	for i, f := range frames {
		b, err := DecodeWALBatch(f.Payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		re, err := EncodeWALBatch(b)
		if err != nil || !bytes.Equal(re, payloads[i]) || b.Epoch != batches[i].Epoch || len(b.Ops) != len(batches[i].Ops) {
			t.Fatalf("frame %d does not decode to its batch: %+v (%v)", i, b, err)
		}
	}
}

// TestGoldenSnapshotFile pins a shard snapshot file: a dataset table
// with a deleted id, its log position and the local → global id map.
func TestGoldenSnapshotFile(t *testing.T) {
	snap := goldenShardSnapshot()
	payload, err := EncodeShardSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap-9.snap")
	if err := WriteSnapshotFileFS(OSFS, path, 2, payload); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snap.golden", data)

	got, err := ReadSnapshotFileFS(OSFS, filepath.Join("testdata", "snap.golden"), 2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeShardSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	re, err := EncodeShardSnapshot(back)
	if err != nil || !bytes.Equal(re, payload) {
		t.Fatalf("golden snapshot does not re-encode to itself (%v)", err)
	}
	if back.Epoch != snap.Epoch || back.Dataset.Seq != snap.Dataset.Seq ||
		len(back.Dataset.Graphs) != 3 || back.Dataset.Graphs[1] != nil || back.Dataset.Graphs[2].Name() != "g2" ||
		len(back.LocalToGlobal) != 3 || back.LocalToGlobal[2] != 300 {
		t.Fatalf("golden snapshot did not decode to its input: %+v", back)
	}
}
