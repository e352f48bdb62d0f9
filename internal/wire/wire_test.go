package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"time"
)

func TestFrames(t *testing.T) {
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xAB}, 300)}
	var stream []byte
	for _, p := range payloads {
		stream = AppendFrame(stream, p)
	}
	// The reserve-then-patch path writes the same bytes.
	patched := BeginFrame([]byte("keep"))
	patched = append(patched, payloads[2]...)
	EndFrame(patched[4:])
	if want := AppendFrame([]byte("keep"), payloads[2]); !bytes.Equal(patched, want) {
		t.Fatalf("BeginFrame/EndFrame wrote %x, AppendFrame %x", patched, want)
	}

	rest, r := stream, bytes.NewReader(stream)
	for i, want := range payloads {
		var got []byte
		var err error
		if got, rest, err = NextFrame(rest); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("NextFrame %d: %x, %v", i, got, err)
		}
		if got, err = ReadFrame(r, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadFrame %d: %x, %v", i, got, err)
		}
	}
	if _, _, err := NextFrame(rest); err != io.EOF {
		t.Fatalf("NextFrame at the end: %v, want io.EOF", err)
	}
	if _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("ReadFrame at the end: %v, want io.EOF", err)
	}

	last := AppendFrame(nil, payloads[2])
	if _, _, err := NextFrame(last[:len(last)-1]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn tail: %v, want ErrBadFrame", err)
	}
	flip := AppendFrame(nil, []byte("abc"))
	flip[HeaderSize] ^= 1
	if _, _, err := NextFrame(flip); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("CRC mismatch: %v, want ErrBadFrame", err)
	}
	if _, err := ReadFrame(bytes.NewReader(flip), 0); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("CRC mismatch over a reader: %v, want ErrBadFrame", err)
	}
	// A declared length over the limit fails before the payload is read.
	if _, err := ReadFrame(bytes.NewReader(AppendFrame(nil, make([]byte, 17))), 16); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized frame: %v, want ErrBadFrame", err)
	}
}

func TestDec(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendInt(b, -5)
	b = AppendDuration(b, 3*time.Second)
	b = AppendBool(b, true)
	b = AppendString(b, "hello")
	b = AppendBytes(b, []byte{1, 2})
	b = AppendUvarint(b, 3) // a count whose elements are missing
	d := NewDec("test", b)
	if d.Uvarint() != 300 || d.Int() != 0 || d.Duration() != 3*time.Second || !d.Bool() ||
		d.Str() != "hello" || !bytes.Equal(d.Bytes(), []byte{1, 2}) {
		t.Fatal("values did not round-trip")
	}
	if n := d.Count(1); n != 0 || d.Err() == nil || d.Err().Error() != "test: count 3 exceeds remaining payload" {
		t.Fatalf("count guard: n=%d err=%v", n, d.Err())
	}
	first := d.Err()
	if d.Byte() != 0 || d.Uvarint() != 0 || d.Bytes() != nil || d.Rest() != nil || d.Finish("x") != first {
		t.Fatal("reads after a failure must return zero values and keep the first error")
	}

	d = NewDec("test", AppendUvarint(nil, math.MaxInt32+1))
	if d.Int(); d.Err() == nil {
		t.Fatal("Int accepted a value beyond int32")
	}
	d = NewDec("test", []byte{7, 8})
	if d.Byte(); d.Finish("thing") == nil || d.Err().Error() != "test: 1 trailing bytes after thing" {
		t.Fatalf("Finish: %v", d.Err())
	}
}

// FuzzWire checks the two frame readers and the cursor on arbitrary
// input. NextFrame over bytes and ReadFrame over a reader must accept
// exactly the same frames with the same payloads. A cursor driven by an
// arbitrary read script must never panic, must never hand out a count
// the unread bytes cannot hold, and must return zero values once failed.
func FuzzWire(f *testing.F) {
	f.Add(AppendFrame(AppendFrame(nil, []byte("one")), nil), []byte{0, 1, 2, 3})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3, 4, 5, 6}, []byte{4, 5, 6, 7, 8, 9})
	f.Add(AppendString(AppendUvarint(nil, 1<<40), "name"), []byte{1, 8, 2, 5})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		rest, r := data, bytes.NewReader(data)
		for {
			p1, next, err1 := NextFrame(rest)
			p2, err2 := ReadFrame(r, 0)
			if (err1 == nil) != (err2 == nil) || !bytes.Equal(p1, p2) {
				t.Fatalf("readers disagree: NextFrame %x/%v, ReadFrame %x/%v", p1, err1, p2, err2)
			}
			if err1 != nil {
				break
			}
			rest = next
		}

		d := NewDec("fuzz", data)
		for _, op := range script {
			before := d.Len()
			switch op % 9 {
			case 0:
				d.Uvarint()
			case 1:
				k := int(op/9) % 9
				if n := d.Count(k); n > 0 && n > d.Len()/max(k, 1) {
					t.Fatalf("Count(%d) = %d with %d bytes left", k, n, d.Len())
				}
			case 2:
				d.Byte()
			case 3:
				d.Bool()
			case 4:
				if b := d.Bytes(); len(b) > before {
					t.Fatalf("Bytes returned %d of %d bytes", len(b), before)
				}
			case 5:
				d.Str()
			case 6:
				d.Duration()
			case 7:
				d.Int()
			case 8:
				d.Finish("script")
			}
			if d.Len() > before {
				t.Fatal("cursor moved backwards")
			}
			if d.Err() != nil && (d.Uvarint() != 0 || d.Byte() != 0 || d.Bytes() != nil || d.Rest() != nil) {
				t.Fatal("a failed cursor returned a value")
			}
		}
	})
}
