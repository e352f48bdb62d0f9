package graph_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"gcplus"
	"gcplus/internal/graph"
)

// refParse is the scanner-and-strings text parser the codec had before it
// parsed on bytes, kept verbatim as the reference the fast paths must
// agree with. It builds through the same Builder, so Builder fixes apply
// to both sides.
func refParse(r io.Reader) ([]*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		graphs []*graph.Graph
		b      *graph.Builder
		line   int
	)
	flush := func() error {
		if b == nil {
			return nil
		}
		g, err := b.Build()
		if err != nil {
			return fmt.Errorf("graph %d ending at line %d: %w", len(graphs), line, err)
		}
		graphs = append(graphs, g)
		b = nil
		return nil
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "t":
			if err := flush(); err != nil {
				return nil, err
			}
			b = graph.NewBuilder()
			if len(fields) > 1 {
				b.SetName(strings.Join(fields[1:], " "))
			}
		case "v":
			if b == nil {
				return nil, fmt.Errorf("line %d: vertex before graph header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: want 'v <id> <label>'", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad vertex id: %w", line, err)
			}
			if id != b.NumVertices() {
				return nil, fmt.Errorf("line %d: vertex ids must be dense and ordered; got %d want %d", line, id, b.NumVertices())
			}
			lbl, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad label: %w", line, err)
			}
			b.AddVertex(graph.Label(lbl))
		case "e":
			if b == nil {
				return nil, fmt.Errorf("line %d: edge before graph header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: want 'e <u> <v>'", line)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad endpoint: %w", line, err)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad endpoint: %w", line, err)
			}
			b.AddEdge(u, v)
		default:
			return nil, fmt.Errorf("line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return graphs, nil
}

// refWrite is the fmt-based writer the codec had before AppendText, kept
// verbatim: the bytes every existing WAL and snapshot holds.
func refWrite(w io.Writer, graphs []*graph.Graph) error {
	bw := bufio.NewWriter(w)
	for _, g := range graphs {
		if _, err := fmt.Fprintf(bw, "t %s\n", g.Name()); err != nil {
			return err
		}
		for v := 0; v < g.NumVertices(); v++ {
			if _, err := fmt.Fprintf(bw, "v %d %d\n", v, g.Label(v)); err != nil {
				return err
			}
		}
		for _, e := range g.EdgeList() {
			if _, err := fmt.Fprintf(bw, "e %d %d\n", e.U, e.V); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func refText(gs []*graph.Graph) string {
	var b strings.Builder
	_ = refWrite(&b, gs) // strings.Builder cannot fail
	return b.String()
}

// sameResult reports how got differs from the reference result, or "".
// Graphs compare by their reference rendering, which spells out name,
// labels and sorted edges.
func sameResult(got []*graph.Graph, gotErr error, want []*graph.Graph, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d graphs, reference %d", len(got), len(want))
	}
	for i := range got {
		if err := got[i].Validate(); err != nil {
			return err.Error()
		}
		if g, w := refText(got[i:i+1]), refText(want[i:i+1]); g != w {
			return fmt.Sprintf("graph %d:\n%s\nreference:\n%s", i, g, w)
		}
	}
	return ""
}

// FuzzParseMatchesReference: Parse and ParseBytes return what the
// reference parser returns — the same graphs or the same error text —
// for any input.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range []string{
		"t g\nv 0 1\nv 1 2\ne 0 1\n",
		"t g\r\nv 0 1\r\nv 1 2\r\ne 0 1\r\n",
		"t\tg\nv\t0\t1\nv 1\v2\nv 2\f3\ne 0 1\ne\t1 2\n",
		"t g\nv 0 1\nv\u00851 2\ne 0\u00a01\n",
		"t \u00a0name\u0085\nv 0 1\n",
		"t g\nv +0 1\nv 1 +2\ne -0 1\n",
		"t g\nv 00 00\nv 01 7\ne 00 01\n",
		"t g\nv 0 1234567890\nv 1 4294967295\nv 2 4294967296\n",
		"t g\nv 0 12345678901234567890\n",
		"t g\nv 0 1\nv 1 1\ne 0 1234567890\n",
		"t g\nv 0 1\ne 0 12345678901234567890\n",
		"t a multi word\tname\nv 0 1\n# comment\n  # indented comment\n\nt second\nv 0 2",
		"t g\nv 0 1 2\n",
		"t g\nv 0 1\nv 1 1\ne 0 1 # trailing\n",
		"# only a comment with several words in it\n",
		"t g\nv 0 1\nv 1 2\ne 4294967296 1\n",
		"t g\nv 0 1\nv 1 2\ne 0 -4294967295\n",
		"t g\nv 0 1\nv 1 2\ne 1 0\ne 0 1\n",
		"t g\ne 0 1\nv 0 1\nv 1 1\n",
		"v 0 1\n",
		"t g\nx 1\n",
		"t g\nv 0 \xff\n",
		"\r\n\r",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := refParse(strings.NewReader(input))
		got, err := graph.Parse(strings.NewReader(input))
		if d := sameResult(got, err, want, wantErr); d != "" {
			t.Fatalf("Parse(%q): %s", input, d)
		}
		got, err = graph.ParseBytes([]byte(input))
		if d := sameResult(got, err, want, wantErr); d != "" {
			t.Fatalf("ParseBytes(%q): %s", input, d)
		}
	})
}

func TestParseRejectsWrappingEndpoints(t *testing.T) {
	for _, e := range []string{"e 4294967296 1", "e 0 -4294967295", "e 0 9223372036854775807", "e -1 1"} {
		src := "t g\nv 0 1\nv 1 2\n" + e + "\n"
		if _, err := graph.Parse(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "endpoint out of range") {
			t.Errorf("Parse %q: err = %v, want endpoint out of range", e, err)
		}
		if _, err := graph.Unmarshal([]byte(src)); err == nil || !strings.Contains(err.Error(), "endpoint out of range") {
			t.Errorf("Unmarshal %q: err = %v, want endpoint out of range", e, err)
		}
	}
}

// TestWriteMatchesReferenceWriter: the text bytes are the ones the
// fmt-based writer produced, so existing WAL and snapshot files decode
// and re-encode unchanged.
func TestWriteMatchesReferenceWriter(t *testing.T) {
	gs, err := gcplus.GenerateAIDSLike(1200, 1)
	if err != nil {
		t.Fatal(err)
	}
	maxLabel := graph.NewBuilder()
	maxLabel.AddVertex(4294967295)
	maxLabel.AddVertex(0)
	maxLabel.AddEdge(1, 0)
	named := graph.Path(3, 1, 2)
	named.SetName("a name with spaces")
	gs = append(gs, graph.NewBuilder().MustBuild(), maxLabel.MustBuild(), named)
	for i, g := range gs {
		want := refText([]*graph.Graph{g})
		if got := string(graph.Marshal(g)); got != want {
			t.Fatalf("graph %d: Marshal\n%s\nreference\n%s", i, got, want)
		}
	}
	var buf bytes.Buffer
	if err := graph.Write(&buf, gs); err != nil {
		t.Fatal(err)
	}
	if buf.String() != refText(gs) {
		t.Fatal("Write differs from the reference writer")
	}
}

func TestCodecAllocations(t *testing.T) {
	b := graph.NewBuilder()
	for v := 0; v < 20; v++ {
		b.AddVertex(graph.Label(v % 5))
		if v > 0 {
			b.AddEdge(v-1, v)
		}
	}
	b.AddEdge(0, 19)
	q := b.MustBuild()
	q.SetName("q")
	text := graph.Marshal(q)

	dst := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() { dst = graph.AppendText(dst[:0], q) }); n != 0 {
		t.Errorf("AppendText into a large-enough buffer: %v allocs, want 0", n)
	}
	// The header line's string and fields, the parser's vertex and edge
	// buffers, the Graph with its labels, adjacency headers and adjacency
	// backing, and the result slice.
	const maxUnmarshalAllocs = 9
	if n := testing.AllocsPerRun(100, func() {
		if _, err := graph.Unmarshal(text); err != nil {
			t.Fatal(err)
		}
	}); n > maxUnmarshalAllocs {
		t.Errorf("Unmarshal of a 20-vertex query: %v allocs, want ≤ %d", n, maxUnmarshalAllocs)
	}
}
