package trace

import (
	"fmt"

	"gcplus/internal/wire"
)

// Span wire codec: the compact binary form a shard uses to piggyback
// its spans on a reply frame. It is written in internal/wire values but
// knows nothing of the transport's messages, so the transport can treat
// the block as opaque bytes. Decoding reads through the wire cursor and
// also caps counts and strings, so a decoder error never panics or
// over-allocates.
const (
	// MaxWireSpans bounds one block; a query produces on the order of a
	// dozen spans per shard, so 512 is generous headroom, not a quota.
	MaxWireSpans = 512
	// MaxWireString bounds every name/key/value/message.
	MaxWireString = 1024
)

// AppendSpans encodes spans onto dst. Oversized strings are truncated
// and per-span lists clipped to the model bounds, so the encoded block
// always decodes.
func AppendSpans(dst []byte, spans []Span) []byte {
	if len(spans) > MaxWireSpans {
		spans = spans[:MaxWireSpans]
	}
	dst = wire.AppendUvarint(dst, uint64(len(spans)))
	for i := range spans {
		s := &spans[i]
		dst = wire.AppendUvarint(dst, uint64(s.TraceID))
		dst = wire.AppendUvarint(dst, uint64(s.ID))
		dst = wire.AppendUvarint(dst, uint64(s.Parent))
		dst = appendCapped(dst, s.Name)
		dst = wire.AppendUvarint(dst, uint64(s.StartNanos))
		dst = wire.AppendUvarint(dst, uint64(s.DurNanos))
		attrs := s.Attrs
		if len(attrs) > MaxAttrs {
			attrs = attrs[:MaxAttrs]
		}
		dst = wire.AppendUvarint(dst, uint64(len(attrs)))
		for _, a := range attrs {
			dst = appendCapped(dst, a.Key)
			dst = appendCapped(dst, a.Value)
		}
		events := s.Events
		if len(events) > MaxEvents {
			events = events[:MaxEvents]
		}
		dst = wire.AppendUvarint(dst, uint64(len(events)))
		for _, e := range events {
			dst = wire.AppendUvarint(dst, uint64(e.UnixNanos))
			dst = appendCapped(dst, e.Msg)
		}
	}
	return dst
}

func appendCapped(dst []byte, s string) []byte {
	if len(s) > MaxWireString {
		s = s[:MaxWireString]
	}
	return wire.AppendString(dst, s)
}

// DecodeSpans decodes a block produced by AppendSpans. The whole input
// must be consumed; trailing bytes are an error (the block is embedded
// as a length-delimited field, so a correct frame never has any).
func DecodeSpans(data []byte) ([]Span, error) {
	d := wire.NewDec("trace", data)
	// Every span costs at least 8 bytes on the wire, which bounds the
	// allocation below by the input size.
	n := d.Count(8)
	if n > MaxWireSpans {
		return nil, fmt.Errorf("trace: span count %d exceeds limit %d", n, MaxWireSpans)
	}
	var spans []Span
	if n > 0 {
		spans = make([]Span, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		var s Span
		s.TraceID = ID(d.Uvarint())
		s.ID = SpanID(d.Uvarint())
		s.Parent = SpanID(d.Uvarint())
		s.Name = cappedStr(&d)
		s.StartNanos = int64(d.Uvarint())
		s.DurNanos = int64(d.Uvarint())
		na := d.Count(2)
		if na > MaxAttrs {
			return nil, fmt.Errorf("trace: attr count %d exceeds limit %d", na, MaxAttrs)
		}
		for j := 0; j < na && d.Err() == nil; j++ {
			s.Attrs = append(s.Attrs, Attr{Key: cappedStr(&d), Value: cappedStr(&d)})
		}
		ne := d.Count(2)
		if ne > MaxEvents {
			return nil, fmt.Errorf("trace: event count %d exceeds limit %d", ne, MaxEvents)
		}
		for j := 0; j < ne && d.Err() == nil; j++ {
			s.Events = append(s.Events, Event{UnixNanos: int64(d.Uvarint()), Msg: cappedStr(&d)})
		}
		spans = append(spans, s)
	}
	if err := d.Finish("span block"); err != nil {
		return nil, err
	}
	return spans, nil
}

// cappedStr reads one string, rejecting any longer than MaxWireString.
func cappedStr(d *wire.Dec) string {
	b := d.Bytes()
	if len(b) > MaxWireString {
		d.Fail("string of %d bytes exceeds limit %d", len(b), MaxWireString)
		return ""
	}
	return string(b)
}
