// Package wire is GC+'s one binary codec: the bounds-checked cursor
// every decoder reads with, the matching append helpers, and the one
// frame that wraps WAL batches, snapshot files and loopback messages:
//
//	u32 payload length | u32 CRC-32 (IEEE) of the payload | payload
//
// both little-endian. Values are uvarints, single bytes and
// uvarint-length-prefixed byte strings. The
// decoder latches its first error and returns zero values afterwards,
// and every length it reads is bounded by the bytes that remain, so
// hostile input yields an error — never a panic, never an allocation
// larger than the input.
//
// The package imports only the standard library, so the span codec in
// internal/trace can use it without a graph dependency.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Dec is a bounds-checked cursor over a payload. The first failure
// latches: Err reports it and every later read returns a zero value.
// Errors carry the package prefix given to NewDec.
type Dec struct {
	data   []byte
	err    error
	prefix string
}

// NewDec returns a cursor over data whose errors read "<pkg>: ...".
func NewDec(pkg string, data []byte) Dec {
	return Dec{data: data, prefix: pkg + ": "}
}

// Err returns the latched error, if any.
func (d *Dec) Err() error { return d.err }

// Fail latches an error unless one is already latched.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.prefix+format, args...)
	}
}

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.data) }

// Rest consumes and returns every unread byte (nil after an error).
func (d *Dec) Rest() []byte {
	if d.err != nil {
		return nil
	}
	b := d.data
	d.data = d.data[len(d.data):]
	return b
}

// Finish returns the latched error, or an error naming what when unread
// bytes remain.
func (d *Dec) Finish(what string) error {
	if d.err == nil && len(d.data) != 0 {
		d.Fail("%d trailing bytes after %s", len(d.data), what)
	}
	return d.err
}

// Uvarint reads one unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.Fail("truncated or malformed uvarint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// Count reads a uvarint element count and bounds it by the unread bytes
// assuming at least minBytes bytes per element, so a corrupt count
// cannot drive a giant allocation.
func (d *Dec) Count(minBytes int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.data)/max(minBytes, 1)) {
		d.Fail("count %d exceeds remaining payload", v)
		return 0
	}
	return int(v)
}

// Int reads a uvarint that must fit a non-negative int32.
func (d *Dec) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt32 {
		d.Fail("value %d overflows int32 range", v)
		return 0
	}
	return int(v)
}

// Duration reads a uvarint nanosecond count.
func (d *Dec) Duration() time.Duration {
	v := d.Uvarint()
	if v > math.MaxInt64 {
		d.Fail("duration overflows int64")
		return 0
	}
	return time.Duration(v)
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.Fail("truncated byte")
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// Bool reads one byte; any non-zero value is true.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Bytes reads a length-prefixed byte string. The result aliases the
// payload.
func (d *Dec) Bytes() []byte {
	n := d.Count(1)
	if d.err != nil {
		return nil
	}
	b := d.data[:n:n]
	d.data = d.data[n:]
	return b
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Bytes()) }

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendInt appends a non-negative int as a uvarint; negative values
// are written as 0.
func AppendInt(dst []byte, v int64) []byte { return binary.AppendUvarint(dst, uint64(max(v, 0))) }

// AppendDuration appends a duration as a uvarint nanosecond count;
// negative durations are written as 0.
func AppendDuration(dst []byte, v time.Duration) []byte { return AppendInt(dst, int64(v)) }

// AppendBool appends 1 for true, 0 for false.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
