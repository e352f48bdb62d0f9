package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gcplus/internal/subiso"
)

// Figure 5 of the paper as a golden file: the speedup in sub-iso tests
// per query at smoke scale, seed 42, over every production Method M and
// all six workload specs — the output of `gcbench -figure 5 -scale
// smoke`. It pins counts only (Figures 4 and 6 are times and stay out),
// so the text must repeat byte for byte. A change that moves GC+'s
// pruning fails here first; regenerate deliberately with
//
//	go test ./internal/bench -run Figure5Golden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata")

func TestFigure5Golden(t *testing.T) {
	m, err := RunMatrix(ScaleSmoke(), 42, subiso.Names(), AllSpecs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyIndependence(); err != nil {
		t.Fatalf("method independence violated: %v", err)
	}
	var got bytes.Buffer
	m.Figure5(&got)

	path := filepath.Join("testdata", "figure5_smoke.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Figure 5 differs from %s\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
