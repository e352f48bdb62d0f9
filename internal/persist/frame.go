package persist

import (
	"encoding/binary"
	"fmt"

	"gcplus/internal/wire"
)

// Every payload persisted — one WAL batch, one shard snapshot — is one
// internal/wire frame (u32 length | u32 CRC-32 | payload). A reader
// accepts a frame only when the full payload is present and the CRC
// matches; anything else is a torn tail, reported as such so the caller
// can truncate to the last intact frame.

// ErrTornFrame reports a frame that is incomplete or fails its CRC — the
// expected shape of a WAL tail after a crash.
var ErrTornFrame = wire.ErrBadFrame

// File headers. Both file kinds start with a 4-byte magic and a u32
// format version; WAL files add the shard index and the segment's base
// epoch so a misplaced file fails loudly instead of replaying into the
// wrong shard.

const formatVersion = 2

var (
	walMagic  = [4]byte{'G', 'C', 'W', 'L'}
	snapMagic = [4]byte{'G', 'C', 'S', 'N'}
)

const (
	walHeaderSize  = 4 + 4 + 4 + 8 // magic, version, shard, base epoch
	snapHeaderSize = 4 + 4 + 4     // magic, version, shard
)

func appendWALHeader(buf []byte, shard int, baseEpoch uint64) []byte {
	buf = append(buf, walMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	return binary.LittleEndian.AppendUint64(buf, baseEpoch)
}

// parseWALHeader validates a WAL file header, returning its base epoch.
func parseWALHeader(data []byte, shard int) (baseEpoch uint64, err error) {
	if len(data) < walHeaderSize {
		return 0, ErrTornFrame // crashed before the header hit disk
	}
	if [4]byte(data[0:4]) != walMagic {
		return 0, fmt.Errorf("persist: not a WAL file (bad magic %q)", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != formatVersion {
		return 0, fmt.Errorf("persist: unsupported WAL format version %d", v)
	}
	if got := int(binary.LittleEndian.Uint32(data[8:12])); got != shard {
		return 0, fmt.Errorf("persist: WAL file belongs to shard %d, not %d", got, shard)
	}
	return binary.LittleEndian.Uint64(data[12:walHeaderSize]), nil
}

func appendSnapHeader(buf []byte, shard int) []byte {
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	return binary.LittleEndian.AppendUint32(buf, uint32(shard))
}

func parseSnapHeader(data []byte, shard int) error {
	if len(data) < snapHeaderSize {
		return fmt.Errorf("persist: snapshot file too short (%d bytes)", len(data))
	}
	if [4]byte(data[0:4]) != snapMagic {
		return fmt.Errorf("persist: not a snapshot file (bad magic %q)", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != formatVersion {
		return fmt.Errorf("persist: unsupported snapshot format version %d", v)
	}
	if got := int(binary.LittleEndian.Uint32(data[8:12])); got != shard {
		return fmt.Errorf("persist: snapshot file belongs to shard %d, not %d", got, shard)
	}
	return nil
}
