package changeplan

import (
	"fmt"

	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/wire"
)

// Binary codec for resolved operations — the currency of the durability
// subsystem's write-ahead log (internal/persist). An op encodes as:
//
//	byte    operation type (dataset.OpType)
//	ADD:    uvarint payload length, then the graph in the text codec
//	DEL:    uvarint graph id
//	UA/UR:  uvarint graph id, uvarint u, uvarint v
//
// The encoding is self-delimiting, so ops concatenate into a frame
// payload without separators; DecodeOp reads one from an internal/wire
// cursor and leaves it at the next.

// AppendBinary appends the op's binary encoding to buf and returns the
// extended slice. ADD ops must carry a graph.
func (op Op) AppendBinary(buf []byte) ([]byte, error) {
	buf = append(buf, byte(op.Type))
	switch op.Type {
	case dataset.OpAdd:
		if op.Graph == nil {
			return nil, fmt.Errorf("changeplan: cannot encode ADD with nil graph")
		}
		return wire.AppendBytes(buf, graph.Marshal(op.Graph)), nil
	case dataset.OpDelete:
		return wire.AppendUvarint(buf, uint64(op.GraphID)), nil
	case dataset.OpUpdateAddEdge, dataset.OpUpdateRemoveEdge:
		buf = wire.AppendUvarint(buf, uint64(op.GraphID))
		buf = wire.AppendUvarint(buf, uint64(op.U))
		return wire.AppendUvarint(buf, uint64(op.V)), nil
	}
	return nil, fmt.Errorf("changeplan: cannot encode unknown op type %v", op.Type)
}

// DecodeOp decodes one op from d. A malformed encoding latches d's
// error and returns the zero Op.
func DecodeOp(d *wire.Dec) Op {
	op := Op{Type: dataset.OpType(d.Byte())}
	switch op.Type {
	case dataset.OpAdd:
		blob := d.Bytes()
		if d.Err() != nil {
			return Op{}
		}
		g, err := graph.Unmarshal(blob)
		if err != nil {
			d.Fail("ADD graph: %v", err)
			return Op{}
		}
		op.Graph = g
	case dataset.OpDelete:
		op.GraphID = int(d.Uvarint())
	case dataset.OpUpdateAddEdge, dataset.OpUpdateRemoveEdge:
		op.GraphID = int(d.Uvarint())
		op.U = int(d.Uvarint())
		op.V = int(d.Uvarint())
	default:
		d.Fail("unknown encoded op type %d", uint8(op.Type))
	}
	if d.Err() != nil {
		return Op{}
	}
	return op
}
