package persist

import (
	"errors"
	"fmt"
	"io"
	"os"

	"gcplus/internal/wire"
)

// WAL is an append-only frame log for one shard. Appends are not safe
// for concurrent use; the serving layer funnels them through the shard's
// owner goroutine, which is also what orders frames with the dataset
// mutations they record.
type WAL struct {
	fs   FS
	f    File
	path string
	size int64
	sync bool
	buf  []byte // reusable frame assembly buffer
	// broken latches after a failed append whose rollback also failed:
	// the segment may end in a torn frame, and appending past it would
	// let recovery's torn-tail truncation silently discard the later —
	// already-acknowledged — frames. A broken WAL refuses every
	// further append until a snapshot rotation replaces the segment.
	broken bool
}

// AppendError wraps a failed WAL append. Retryable reports that the
// segment was rolled back to its last intact frame, so re-appending
// the same payload is safe (the basis for the serve layer's bounded
// retry-with-backoff under the fail-update policy). A non-retryable
// AppendError means the segment is poisoned until rotation.
type AppendError struct {
	Path      string
	Err       error
	Retryable bool
}

func (e *AppendError) Error() string {
	state := "poisoned until rotation"
	if e.Retryable {
		state = "rolled back, retryable"
	}
	return fmt.Sprintf("persist: WAL %s append failed (%s): %v", e.Path, state, e.Err)
}

func (e *AppendError) Unwrap() error { return e.Err }

// IsRetryableAppend reports whether err is a WAL append failure after
// which the segment was restored to its last intact frame, making an
// immediate re-append of the same payload safe.
func IsRetryableAppend(err error) bool {
	var ae *AppendError
	return errors.As(err, &ae) && ae.Retryable
}

// CreateWAL creates (truncating any previous file) a WAL segment with
// the given shard index and base epoch in its header. sync selects
// fsync-per-append; in sync mode the parent directory is fsynced too —
// a file's own fsync does not commit its directory entry, and a
// rotation whose dirent is lost in a crash would silently drop every
// acknowledged batch the segment held.
func CreateWAL(path string, shard int, baseEpoch uint64, sync bool) (*WAL, error) {
	return CreateWALFS(OSFS, path, shard, baseEpoch, sync)
}

// CreateWALFS is CreateWAL writing through an explicit filesystem.
func CreateWALFS(fsys FS, path string, shard int, baseEpoch uint64, sync bool) (*WAL, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := appendWALHeader(nil, shard, baseEpoch)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{fs: fsys, f: f, path: path, size: int64(len(hdr)), sync: sync}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		if err := syncDirFS(fsys, path); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// OpenWALAppendFS reopens an existing segment on fsys for appending
// after recovery, truncating it to truncAt first (the offset just past
// the last intact frame, as reported by ReadWALFile) so a torn tail
// never precedes fresh frames.
func OpenWALAppendFS(fsys FS, path string, shard int, truncAt int64, sync bool) (*WAL, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if truncAt < walHeaderSize {
		f.Close()
		return nil, fmt.Errorf("persist: WAL truncation offset %d inside the header", truncAt)
	}
	if err := f.Truncate(truncAt); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(truncAt, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{fs: fsys, f: f, path: path, size: truncAt, sync: sync}, nil
}

// Append writes one frame and, when the WAL is in sync mode, fsyncs it
// before returning — the durability point of an update batch.
//
// A failed append leaves the file in an untrustworthy state: it may end
// in a torn frame (short write), or in bytes whose durability is
// unknowable (a failed fsync — the page cache's state after
// fsyncgate-style errors cannot be trusted), and a frame appended after
// either would be cut off by recovery's torn-tail truncation even
// though its batch was acknowledged. Append first tries to roll the
// segment back to the last intact frame (truncate + seek); if the
// rollback succeeds the returned *AppendError is Retryable — the caller
// may re-append the same payload, which rewrites the frame from scratch
// and fsyncs it again. If the rollback itself fails the segment is
// poisoned and refuses all further appends until a snapshot rotation
// opens a fresh segment.
func (w *WAL) Append(payload []byte) error {
	if w.broken {
		return fmt.Errorf("persist: WAL %s is poisoned by an earlier failed append; awaiting rotation", w.path)
	}
	w.buf = wire.AppendFrame(w.buf[:0], payload)
	if _, err := w.f.Write(w.buf); err != nil {
		return w.appendFailed(err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return w.appendFailed(err)
		}
	}
	w.size += int64(len(w.buf))
	return nil
}

// appendFailed handles a failed write or fsync: roll back to the last
// intact frame if possible (retryable), poison the segment otherwise.
func (w *WAL) appendFailed(cause error) error {
	if err := w.f.Truncate(w.size); err == nil {
		if _, err := w.f.Seek(w.size, io.SeekStart); err == nil {
			return &AppendError{Path: w.path, Err: cause, Retryable: true}
		}
	}
	w.broken = true
	return &AppendError{Path: w.path, Err: cause, Retryable: false}
}

// Broken reports whether the segment is poisoned (refusing appends
// until rotation).
func (w *WAL) Broken() bool { return w.broken }

// Size returns the current file size in bytes (header + intact frames).
func (w *WAL) Size() int64 { return w.size }

// Path returns the segment's file path.
func (w *WAL) Path() string { return w.path }

// Close syncs and closes the segment.
func (w *WAL) Close() error {
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CloseRaw closes the segment without the final fsync — the
// crash-shaped shutdown: whatever the kernel already has is all a
// recovery may see, exactly as if the process had died.
func (w *WAL) CloseRaw() error { return w.f.Close() }

// WALFrame is one intact frame read back from a segment, with the byte
// offset just past it (the truncation point if this is the last intact
// frame).
type WALFrame struct {
	Payload []byte
	End     int64
}

// ReadWALFile reads a segment's intact frames. A torn tail — partial
// header, partial frame, CRC failure — is not an error: the intact
// prefix is returned along with the offset it ends at, and torn reports
// whether anything was cut. Structural problems (wrong magic, wrong
// shard) are errors.
func ReadWALFile(path string, shard int) (baseEpoch uint64, frames []WALFrame, end int64, torn bool, err error) {
	return ReadWALFileFS(OSFS, path, shard)
}

// ReadWALFileFS is ReadWALFile reading through an explicit filesystem.
func ReadWALFileFS(fsys FS, path string, shard int) (baseEpoch uint64, frames []WALFrame, end int64, torn bool, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, nil, 0, false, err
	}
	baseEpoch, err = parseWALHeader(data, shard)
	if err != nil {
		if errors.Is(err, ErrTornFrame) {
			// Crashed before the header was durable: an empty segment.
			return 0, nil, walHeaderSize, true, nil
		}
		return 0, nil, 0, false, err
	}
	off := int64(walHeaderSize)
	rest := data[walHeaderSize:]
	for {
		payload, next, ferr := wire.NextFrame(rest)
		if ferr == io.EOF {
			return baseEpoch, frames, off, false, nil
		}
		if ferr != nil {
			if errors.Is(ferr, ErrTornFrame) {
				return baseEpoch, frames, off, true, nil
			}
			return 0, nil, 0, false, ferr
		}
		off += int64(wire.HeaderSize + len(payload))
		frames = append(frames, WALFrame{Payload: payload, End: off})
		rest = next
	}
}

// WriteSnapshotFileFS atomically writes a snapshot file on fsys: the
// payload is framed behind a snapshot header, written to a temporary
// sibling, fsynced, and renamed into place, with the directory fsynced
// after the rename. A crash at any point leaves either no file or a
// complete one.
func WriteSnapshotFileFS(fsys FS, path string, shard int, payload []byte) error {
	buf := appendSnapHeader(nil, shard)
	buf = wire.AppendFrame(buf, payload)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return syncDirFS(fsys, path)
}

// ReadSnapshotFileFS reads and validates a snapshot file on fsys,
// returning its frame payload.
func ReadSnapshotFileFS(fsys FS, path string, shard int) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := parseSnapHeader(data, shard); err != nil {
		return nil, err
	}
	payload, rest, err := wire.NextFrame(data[snapHeaderSize:])
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot %s: %w", path, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("persist: snapshot %s has %d trailing bytes", path, len(rest))
	}
	return payload, nil
}
