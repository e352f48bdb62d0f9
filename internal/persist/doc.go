// Package persist is GC+'s durability subsystem: a per-shard write-ahead
// log of resolved dataset change operations plus periodic snapshots of
// each shard's dataset, giving the serving layer (internal/router)
// crash-safe restarts — a rebooted server resumes with the dataset it
// was serving, at the last acknowledged epoch. Dataset + WAL are
// durable; the cache re-warms. It is derived state (consistency is
// defined against the dataset, and Method M can recompute any cached
// answer), so it is not persisted and a restarted shard starts with an
// empty one.
//
// # On-disk layout
//
// A data directory holds one subdirectory per shard:
//
//	<data-dir>/
//	  shard-0/
//	    snap-<epoch>.snap   shard snapshot taken at <epoch>
//	    wal-<epoch>.log     WAL segment with frames for epochs > <epoch>
//	  shard-1/
//	    ...
//
// Epochs are update-batch numbers (the serving layer's dataset version).
// A snapshot generation is *complete* when every shard directory holds a
// valid snap file for the same epoch; recovery loads the newest complete
// generation and replays the WAL segments chained after it. Segments
// rotate at snapshot time, so the segment named wal-E.log contains
// exactly the batches applied after the snapshot at epoch E; if a
// snapshot write fails mid-way, the previous generation plus the chained
// segments still reconstruct the full state.
//
// # Frames and crash safety
//
// Both file kinds are sequences of internal/wire frames (the one
// definition of the length-prefixed, CRC-32-checked frame, shared with
// the loopback transport) behind a small typed header. WAL appends write
// one frame per update batch — every shard logs every epoch, with an
// empty frame when the batch did not touch it, which makes per-shard
// epochs dense and lets recovery compute the newest batch durable on
// *all* shards (the cross-shard consistency point) as a simple minimum.
// Frames are fsynced before the update is acknowledged (unless NoSync),
// so an acknowledged batch survives a crash; a torn tail — a partially
// written frame, or a batch durable on only some shards — is detected
// by the CRC/length checks and truncated away, exactly as if the
// unacknowledged batch had never happened.
//
// Snapshot files are written to a temporary name, fsynced and renamed
// into place, so a crash mid-snapshot leaves either the old complete
// generation or the new one, never a half-written file that parses.
//
// # Recovery contract
//
// Replaying the WAL restores the dataset bit-for-bit. Each shard's cache
// starts empty at the restored dataset's log position, so no validity
// bit predates the replay and answers are bit-identical to a cold
// rebuild from the first post-restart query on. A snapshot written in
// an older format (version 1 also held the cache) is refused, not
// misread.
package persist
