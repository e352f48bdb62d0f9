package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the frame header: u32 payload length, u32 CRC-32.
const HeaderSize = 8

// MaxFramePayload bounds a frame's declared payload (1 GiB) so a
// corrupt length word cannot drive a giant allocation. Snapshots of
// very large shards are the biggest frames the system writes, far
// below it.
const MaxFramePayload = 1 << 30

// ErrBadFrame reports a frame that is incomplete, declares an
// implausible length, or fails its CRC. In a WAL it is the expected
// shape of the tail after a crash.
var ErrBadFrame = errors.New("wire: torn or corrupt frame")

// BeginFrame reserves a frame header at the end of dst. Append the
// payload after it, then seal the frame with EndFrame, so a payload is
// framed where it is written, without a copy.
func BeginFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// EndFrame writes the header of frame, which starts at a header
// reserved by BeginFrame and runs to the end of the payload.
func EndFrame(frame []byte) {
	payload := frame[HeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(BeginFrame(dst), payload...)
	EndFrame(dst[start:])
	return dst
}

// payloadLen validates a header's length word against limit.
func payloadLen(hdr []byte, limit int) (int, error) {
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if uint64(n) > uint64(limit) {
		return 0, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrBadFrame, n, limit)
	}
	return int(n), nil
}

// checkSum verifies payload against its header's CRC word.
func checkSum(hdr, payload []byte) error {
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	return nil
}

// NextFrame splits one frame off the front of data, returning its
// payload (aliasing data) and the bytes after it. io.EOF means data was
// empty, a clean end; any other error wraps ErrBadFrame.
func NextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, io.EOF
	}
	if len(data) < HeaderSize {
		return nil, nil, fmt.Errorf("%w: %d-byte partial header", ErrBadFrame, len(data))
	}
	n, err := payloadLen(data, MaxFramePayload)
	if err != nil {
		return nil, nil, err
	}
	body := data[HeaderSize:]
	if len(body) < n {
		return nil, nil, fmt.Errorf("%w: payload %d of %d bytes", ErrBadFrame, len(body), n)
	}
	if err := checkSum(data, body[:n]); err != nil {
		return nil, nil, err
	}
	return body[:n], body[n:], nil
}

// ReadFrame reads one frame from r and returns its payload, enforcing
// limit (<= 0 means MaxFramePayload) before allocating. Read errors
// pass through (io.EOF before the first header byte, io.ErrUnexpectedEOF
// inside a frame); a bad length or CRC wraps ErrBadFrame.
func ReadFrame(r io.Reader, limit int) ([]byte, error) {
	if limit <= 0 {
		limit = MaxFramePayload
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := payloadLen(hdr[:], limit)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if err := checkSum(hdr[:], payload); err != nil {
		return nil, err
	}
	return payload, nil
}
