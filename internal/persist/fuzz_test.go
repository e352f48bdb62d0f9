package persist

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"gcplus/internal/changeplan"
	"gcplus/internal/wire"
)

// FuzzWALDecode drives arbitrary bytes through the full WAL read path —
// frame splitting plus batch decoding — asserting it never panics and
// that every batch it does accept survives an encode → decode round
// trip structurally intact (the graph text codec is not byte-canonical
// for arbitrary inputs — comments, whitespace — so the invariant is
// structural equality after re-encoding, not byte identity).
func FuzzWALDecode(f *testing.F) {
	// Seed with a realistic two-frame stream.
	b1, err := EncodeWALBatch(&WALBatch{
		Epoch: 1,
		Ops: []WALOp{
			{Op: changeplan.AddOp(testGraph("seed")), GlobalID: 3},
			{Op: changeplan.AddEdgeOp(0, 0, 1), GlobalID: 0},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	b2, err := EncodeWALBatch(&WALBatch{Epoch: 2})
	if err != nil {
		f.Fatal(err)
	}
	stream := wire.AppendFrame(wire.AppendFrame(nil, b1), b2)
	f.Add(stream)
	f.Add(b1)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for {
			payload, next, err := wire.NextFrame(rest)
			if err != nil {
				break
			}
			batch, err := DecodeWALBatch(payload)
			if err == nil {
				re, err := EncodeWALBatch(batch)
				if err != nil {
					t.Fatalf("decoded batch fails to re-encode: %v", err)
				}
				back, err := DecodeWALBatch(re)
				if err != nil {
					t.Fatalf("re-encoded batch fails to decode: %v", err)
				}
				if back.Epoch != batch.Epoch || len(back.Ops) != len(batch.Ops) {
					t.Fatalf("round trip changed batch shape: %+v vs %+v", batch, back)
				}
				for i := range back.Ops {
					a, b := batch.Ops[i], back.Ops[i]
					if a.GlobalID != b.GlobalID || a.Op.Type != b.Op.Type ||
						a.Op.GraphID != b.Op.GraphID || a.Op.U != b.Op.U || a.Op.V != b.Op.V {
						t.Fatalf("round trip changed op %d: %+v vs %+v", i, a, b)
					}
					if (a.Op.Graph == nil) != (b.Op.Graph == nil) {
						t.Fatalf("round trip changed op %d graph presence", i)
					}
					if a.Op.Graph != nil &&
						(a.Op.Graph.NumVertices() != b.Op.Graph.NumVertices() ||
							a.Op.Graph.NumEdges() != b.Op.Graph.NumEdges()) {
						t.Fatalf("round trip changed op %d graph shape", i)
					}
				}
			}
			rest = next
		}
	})
}

// FuzzShardSnapshotDecode drives arbitrary bytes through the shard
// snapshot decoder, asserting it never panics and that every snapshot it
// accepts survives an encode → decode round trip (structurally, for the
// same reason as FuzzWALDecode). Seeded from the golden snapshot file.
func FuzzShardSnapshotDecode(f *testing.F) {
	golden, err := ReadSnapshotFileFS(OSFS, filepath.Join("testdata", "snap.golden"), 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeShardSnapshot(data)
		if err != nil {
			return
		}
		re, err := EncodeShardSnapshot(snap)
		if err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		back, err := DecodeShardSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		if back.Epoch != snap.Epoch || back.Dataset.Seq != snap.Dataset.Seq ||
			len(back.Dataset.Graphs) != len(snap.Dataset.Graphs) || !slices.Equal(back.LocalToGlobal, snap.LocalToGlobal) {
			t.Fatalf("round trip changed snapshot shape: %+v vs %+v", snap, back)
		}
		for i, g := range snap.Dataset.Graphs {
			b := back.Dataset.Graphs[i]
			if (g == nil) != (b == nil) || g != nil && (g.NumVertices() != b.NumVertices() || g.NumEdges() != b.NumEdges()) {
				t.Fatalf("round trip changed graph %d", i)
			}
		}
	})
}
