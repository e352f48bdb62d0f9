package changeplan

import (
	"encoding/binary"
	"strings"
	"testing"

	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/wire"
)

// decodeOp decodes one op from the front of data, returning the rest.
func decodeOp(data []byte) (Op, []byte, error) {
	d := wire.NewDec("changeplan", data)
	op := DecodeOp(&d)
	return op, d.Rest(), d.Err()
}

func TestOpBinaryRoundTrip(t *testing.T) {
	g := graph.Path(1, 2, 3)
	ops := []Op{
		AddOp(g),
		DeleteOp(12),
		AddEdgeOp(7, 0, 4),
		RemoveEdgeOp(3, 2, 1),
	}
	// Concatenate all ops into one buffer: the encoding must be
	// self-delimiting.
	var buf []byte
	var err error
	for _, op := range ops {
		if buf, err = op.AppendBinary(buf); err != nil {
			t.Fatal(err)
		}
	}
	rest := buf
	for i, want := range ops {
		var got Op
		got, rest, err = decodeOp(rest)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got.Type != want.Type || got.GraphID != want.GraphID || got.U != want.U || got.V != want.V {
			t.Fatalf("op %d: got %+v want %+v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	// The ADD graph survives structurally.
	dec, _, err := decodeOp(func() []byte { b, _ := ops[0].AppendBinary(nil); return b }())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Graph.NumVertices() != 3 || dec.Graph.NumEdges() != 2 || dec.Graph.Label(1) != 2 {
		t.Fatalf("ADD graph mangled: %v", dec.Graph)
	}
}

func TestOpBinaryErrors(t *testing.T) {
	if _, err := (Op{Type: dataset.OpAdd}).AppendBinary(nil); err == nil {
		t.Fatal("ADD with nil graph encoded")
	}
	if _, err := (Op{Type: dataset.OpType(9)}).AppendBinary(nil); err == nil {
		t.Fatal("unknown op type encoded")
	}
	if _, _, err := decodeOp(nil); err == nil {
		t.Fatal("empty input decoded")
	}
	if _, _, err := decodeOp([]byte{9}); err == nil {
		t.Fatal("unknown op type decoded")
	}
	// Truncated ADD payload.
	buf, err := AddOp(graph.Path(1, 2)).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeOp(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated ADD decoded")
	}
}

// An ADD whose graph text names an endpoint beyond int32 must fail to
// decode, not wrap onto a real vertex.
func TestDecodeAddRejectsWrappingEndpoint(t *testing.T) {
	for _, e := range []string{"e 4294967296 1", "e 0 -4294967295"} {
		text := "t g\nv 0 1\nv 1 2\n" + e + "\n"
		buf := append([]byte{byte(dataset.OpAdd)}, binary.AppendUvarint(nil, uint64(len(text)))...)
		buf = append(buf, text...)
		if _, _, err := decodeOp(buf); err == nil || !strings.Contains(err.Error(), "endpoint out of range") {
			t.Errorf("%q: err = %v, want endpoint out of range", e, err)
		}
	}
}
