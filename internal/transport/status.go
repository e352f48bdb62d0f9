// Package transport carries the ShardService contract between the
// router and its shard hosts. It defines the ShardClient interface the
// router fans out over, two implementations — Local (direct in-process
// calls, zero serialization) and Loopback (a real TCP transport over
// internal/wire's CRC length-prefixed frames) —
// and the shared error taxonomy mapping the serving stack's typed
// failures onto transport status codes. The HTTP layer and the wire
// codecs both consult the same table, so a shard error surfaces with
// the same meaning whether the shard was reached by a struct pointer or
// over a socket.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"gcplus/internal/core"
	"gcplus/internal/wire"
)

// ErrClosed is returned by operations on a closed server. (The message
// keeps the historical "serve:" prefix: it is part of the HTTP error
// surface and of test expectations predating the router/shard-host
// split.)
var ErrClosed = errors.New("serve: server is closed")

// OverloadError is returned when admission control sheds a request
// because the in-flight limit is saturated. The HTTP layer maps it to
// 429 with a Retry-After header; programmatic callers should back off
// and retry — nothing was executed or enqueued.
type OverloadError struct {
	// Kind is "query" or "update".
	Kind string
	// Limit is the in-flight bound that was saturated.
	Limit int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: %s load shed: %d in flight (admission limit reached)", e.Kind, e.Limit)
}

// IsOverload reports whether err is an admission-control shed.
func IsOverload(err error) bool {
	var oe *OverloadError
	return errors.As(err, &oe)
}

// DurabilityError reports an update batch that was applied in memory
// but whose WAL append failed — the batch may not survive a crash.
// Clients must NOT blindly retry: the ops are already applied, and
// re-submitting would double-apply them.
type DurabilityError struct {
	Epoch uint64
	Shard int
	Err   error
}

func (e *DurabilityError) Error() string {
	return fmt.Sprintf("serve: WAL append for batch %d failed on shard %d (applied in memory, may not be durable): %v",
		e.Epoch, e.Shard, e.Err)
}

func (e *DurabilityError) Unwrap() error { return e.Err }

// Status classifies a serving-stack failure for transport and HTTP
// surfaces. The taxonomy is the single shared table: StatusOf decides
// the class, HTTPCode renders it, and the loopback wire codec carries
// the same byte so a remote shard's error decodes back into the same
// class it left with.
type Status uint8

const (
	// StatusOK: no error.
	StatusOK Status = iota
	// StatusBadRequest: the request itself is malformed — an
	// undecodable or oversized frame, an invalid parameter. Nothing was
	// executed.
	StatusBadRequest
	// StatusOverload: admission control shed the request
	// (*OverloadError). Safe to retry after backoff.
	StatusOverload
	// StatusCanceled: the request's deadline expired or its context was
	// cancelled (*core.CancelError, stage-tagged).
	StatusCanceled
	// StatusClosed: the server or transport is shut down (ErrClosed).
	StatusClosed
	// StatusDurability: the operation was applied but could not be made
	// durable (*DurabilityError, WAL-policy failures). NOT safe to
	// retry blindly.
	StatusDurability
	// StatusInternal: everything else.
	StatusInternal
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusOverload:
		return "overload"
	case StatusCanceled:
		return "canceled"
	case StatusClosed:
		return "closed"
	case StatusDurability:
		return "durability"
	case StatusInternal:
		return "internal"
	}
	return "unknown"
}

// HTTPCode maps a status to its HTTP response code — the other half of
// the shared table.
func (s Status) HTTPCode() int {
	switch s {
	case StatusOK:
		return http.StatusOK
	case StatusBadRequest:
		return http.StatusBadRequest
	case StatusOverload:
		return http.StatusTooManyRequests
	case StatusCanceled:
		return http.StatusGatewayTimeout
	case StatusClosed, StatusDurability:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// StatusOf classifies err. Unrecognized errors are StatusInternal.
func StatusOf(err error) Status {
	if err == nil {
		return StatusOK
	}
	if errors.Is(err, ErrClosed) {
		return StatusClosed
	}
	var oe *OverloadError
	if errors.As(err, &oe) {
		return StatusOverload
	}
	var ce *core.CancelError
	if errors.As(err, &ce) {
		return StatusCanceled
	}
	var de *DurabilityError
	if errors.As(err, &de) {
		return StatusDurability
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.status
	}
	return StatusInternal
}

// statusError carries a status across a decode boundary for classes
// that have no richer typed form (bad requests, opaque remote
// internals). StatusOf recognizes it so a remote error keeps its class.
type statusError struct {
	status Status
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// badRequestf builds a StatusBadRequest error.
func badRequestf(format string, args ...any) error {
	return &statusError{status: StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// appendWireError encodes err for the wire: the status byte from the
// shared table plus the per-class payload needed to reconstruct the
// typed error on the other side.
func appendWireError(dst []byte, err error) []byte {
	st := StatusOf(err)
	dst = append(dst, byte(st))
	switch st {
	case StatusOK:
	case StatusClosed:
		// No payload: the decoder returns the canonical ErrClosed.
	case StatusOverload:
		var oe *OverloadError
		errors.As(err, &oe)
		dst = wire.AppendString(dst, oe.Kind)
		dst = wire.AppendUvarint(dst, uint64(oe.Limit))
	case StatusCanceled:
		var ce *core.CancelError
		errors.As(err, &ce)
		dst = wire.AppendString(dst, ce.Stage)
		if errors.Is(ce.Err, context.DeadlineExceeded) {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 2)
		}
	case StatusDurability:
		var de *DurabilityError
		errors.As(err, &de)
		dst = wire.AppendUvarint(dst, de.Epoch)
		dst = wire.AppendUvarint(dst, uint64(de.Shard))
		dst = wire.AppendString(dst, fmt.Sprint(de.Err))
	default:
		dst = wire.AppendString(dst, err.Error())
	}
	return dst
}

// decodeWireError is appendWireError's inverse; it reconstructs the
// typed error so StatusOf and errors.As work identically on both sides
// of the wire. A malformed block latches d's error.
func decodeWireError(d *wire.Dec) error {
	switch st := Status(d.Byte()); st {
	case StatusOK:
		return nil
	case StatusOverload:
		return &OverloadError{Kind: d.Str(), Limit: int(d.Uvarint())}
	case StatusCanceled:
		stage := d.Str()
		cause := context.Canceled
		if d.Byte() == 1 {
			cause = context.DeadlineExceeded
		}
		return &core.CancelError{Stage: stage, Err: cause}
	case StatusClosed:
		return ErrClosed
	case StatusDurability:
		return &DurabilityError{Epoch: d.Uvarint(), Shard: int(d.Uvarint()), Err: errors.New(d.Str())}
	default:
		return &statusError{status: st, msg: d.Str()}
	}
}
