package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The text codec reads and writes the line-oriented format customary for
// graph-database benchmarks (a close relative of the format the AIDS
// dataset ships in):
//
//	t <name>        start of a graph
//	v <id> <label>  vertex declaration; ids must be dense, in order
//	e <u> <v>       undirected edge
//	# ...           comment, ignored
//
// Blank lines are ignored. A file may contain any number of graphs.

// maxLineBytes bounds one line of the text format.
const maxLineBytes = 16 * 1024 * 1024

// writeChunk is how much text Write buffers before handing it to w.
const writeChunk = 64 * 1024

// AppendText appends g in the text format to dst and returns the
// extended slice.
func AppendText(dst []byte, g *Graph) []byte {
	dst = append(dst, "t "...)
	dst = append(dst, g.name...)
	dst = append(dst, '\n')
	for v, l := range g.labels {
		dst = append(dst, "v "...)
		dst = strconv.AppendInt(dst, int64(v), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(l), 10)
		dst = append(dst, '\n')
	}
	for u, ns := range g.adj {
		for _, v := range ns {
			if int32(u) < v {
				dst = append(dst, "e "...)
				dst = strconv.AppendInt(dst, int64(u), 10)
				dst = append(dst, ' ')
				dst = strconv.AppendInt(dst, int64(v), 10)
				dst = append(dst, '\n')
			}
		}
	}
	return dst
}

// Write serializes the graphs to w in the text format.
func Write(w io.Writer, graphs []*Graph) error {
	var buf []byte
	for _, g := range graphs {
		buf = AppendText(buf, g)
		if len(buf) >= writeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// Marshal serializes a single graph to the text format — the payload
// form that snapshots, WAL frames, changeplan ADD ops and shard query
// requests embed (each length-prefixes it, so the text form needs no
// escaping of its own).
func Marshal(g *Graph) []byte {
	// Most ids and labels print in a handful of digits.
	return AppendText(make([]byte, 0, 3+len(g.name)+10*(len(g.labels)+g.m)), g)
}

// Unmarshal parses exactly one graph in the text format.
func Unmarshal(data []byte) (*Graph, error) {
	gs, err := ParseBytes(data)
	if err != nil {
		return nil, err
	}
	if len(gs) != 1 {
		return nil, fmt.Errorf("graph: want exactly one graph, got %d", len(gs))
	}
	return gs[0], nil
}

// Parse reads every graph in the text format from r.
func Parse(r io.Reader) ([]*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	var p parser
	for sc.Scan() {
		if err := p.line(sc.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p.finish()
}

// ParseBytes is Parse over an in-memory text: same graphs, same errors.
func ParseBytes(data []byte) ([]*Graph, error) {
	var p parser
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		// Where bufio.Scanner gives up: the line and its newline overflow
		// a buffer of maxLineBytes.
		if len(line) >= maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		if err := p.line(line); err != nil {
			return nil, err
		}
	}
	return p.finish()
}

// parser holds the state of one Parse or ParseBytes call. Its Builder is
// reused from graph to graph; Build copies out what the graph keeps.
type parser struct {
	graphs []*Graph
	b      Builder
	open   bool // a graph header has been read
	n      int  // lines read
}

// line consumes one line, without its newline. ASCII vertex and edge
// lines whose numbers are short digit runs — all the codec itself
// writes for realistic graphs — are handled in place on the bytes; every
// other line, and every line that is an error, goes through textLine.
func (p *parser) line(raw []byte) error {
	p.n++
	var f [3][]byte
	n, ok := asciiFields(raw, &f)
	if ok && (n == 0 || f[0][0] == '#') {
		return nil
	}
	if ok && n == 3 && len(f[0]) == 1 && p.open {
		a, okA := shortUint(f[1])
		c, okC := shortUint(f[2])
		switch {
		case okA && okC && f[0][0] == 'v' && a == p.b.NumVertices():
			p.b.AddVertex(Label(c))
			return nil
		case okA && okC && f[0][0] == 'e':
			p.b.AddEdge(a, c)
			return nil
		}
	}
	return p.textLine(string(raw))
}

// textLine is the general line parser: Unicode whitespace, signs, long
// numbers, multi-word names and every error message live here.
func (p *parser) textLine(raw string) error {
	text := strings.TrimSpace(raw)
	if text == "" || strings.HasPrefix(text, "#") {
		return nil
	}
	fields := strings.Fields(text)
	switch fields[0] {
	case "t":
		if err := p.flush(); err != nil {
			return err
		}
		if p.b.labels == nil {
			// Room for a typical query graph; the buffers then live
			// as long as the call and grow to its largest graph.
			p.b.labels, p.b.edges = make([]Label, 0, 32), make([]Edge, 0, 32)
		}
		p.b.reset(strings.Join(fields[1:], " "))
		p.open = true
	case "v":
		if !p.open {
			return fmt.Errorf("line %d: vertex before graph header", p.n)
		}
		if len(fields) != 3 {
			return fmt.Errorf("line %d: want 'v <id> <label>'", p.n)
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("line %d: bad vertex id: %w", p.n, err)
		}
		if id != p.b.NumVertices() {
			return fmt.Errorf("line %d: vertex ids must be dense and ordered; got %d want %d", p.n, id, p.b.NumVertices())
		}
		lbl, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return fmt.Errorf("line %d: bad label: %w", p.n, err)
		}
		p.b.AddVertex(Label(lbl))
	case "e":
		if !p.open {
			return fmt.Errorf("line %d: edge before graph header", p.n)
		}
		if len(fields) != 3 {
			return fmt.Errorf("line %d: want 'e <u> <v>'", p.n)
		}
		u, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("line %d: bad endpoint: %w", p.n, err)
		}
		v, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("line %d: bad endpoint: %w", p.n, err)
		}
		p.b.AddEdge(u, v)
	default:
		return fmt.Errorf("line %d: unknown record %q", p.n, fields[0])
	}
	return nil
}

// flush builds the open graph, if any.
func (p *parser) flush() error {
	if !p.open {
		return nil
	}
	g, err := p.b.Build()
	if err != nil {
		return fmt.Errorf("graph %d ending at line %d: %w", len(p.graphs), p.n, err)
	}
	p.graphs = append(p.graphs, g)
	p.open = false
	return nil
}

func (p *parser) finish() ([]*Graph, error) {
	if err := p.flush(); err != nil {
		return nil, err
	}
	return p.graphs, nil
}

// asciiSpace marks the bytes strings.Fields splits on below utf8.RuneSelf.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// asciiFields splits line on ASCII whitespace into f and returns the
// field count. It reports false — leaving the line to textLine — when
// the line has a non-ASCII byte (which may be Unicode whitespace) or
// more fields than f holds.
func asciiFields(line []byte, f *[3][]byte) (int, bool) {
	n, start := 0, -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			return 0, false
		case !asciiSpace[c]:
			if start < 0 {
				start = i
			}
		case start >= 0:
			if n == len(f) {
				return 0, false
			}
			f[n], n, start = line[start:i], n+1, -1
		}
	}
	if start >= 0 {
		if n == len(f) {
			return 0, false
		}
		f[n], n = line[start:], n+1
	}
	return n, true
}

// shortUint parses a run of 1 to 9 decimal digits, which cannot overflow
// an id or a label. Anything else reports false.
func shortUint(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
