package store

// The frame: the one envelope a record travels in, on disk and on the
// replication stream alike —
//
//	u32 payload length | u32 CRC32(payload) | payload
//	payload = u8 kind | u64 LSN | body
//
// — so a shipped record is byte-for-byte the durable record and the
// replica's CRC check covers the whole path from the leader's log file
// to its own replayer. AppendFrame is the only encoder and ReadFrame the
// only validator: the WAL appender, recovery's scan, the Tailer, the
// leader's stream handler and the replica's stream client all go
// through them.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record is one committed WAL record: the globally sequential LSN, the
// record kind and the kind-specific body. It is what a frame carries,
// what a Tailer yields and what State.Apply folds. On the replication
// stream a Record may also be a control frame (HeartbeatKind, GapKind)
// whose LSN is the leader's durable horizon and whose body is empty.
type Record struct {
	LSN  uint64
	Kind byte
	Body []byte
}

// Record kinds. Values are part of the on-disk and stream formats.
const (
	recObjects         byte = 1
	recSetDoorClosed   byte = 2
	recAddPartition    byte = 3
	recRemovePartition byte = 4
	recAttachDoor      byte = 5
	recDetachDoor      byte = 6
	recSplit           byte = 7
	recMerge           byte = 8
	recRebuildSkeleton byte = 9
	recSubscribe       byte = 10
	recUnsubscribe     byte = 11

	// GapKind marks a stream-only frame telling the subscriber its
	// position has been compacted away on the leader: replay cannot
	// continue and the subscriber must resync from a fresh checkpoint.
	GapKind byte = 254
	// HeartbeatKind marks a stream-only frame that keeps an idle stream
	// alive and feeds the replica's lag gauge. Neither stream kind is
	// ever written to a log file.
	HeartbeatKind byte = 255
)

// frameHeaderSize is the length+CRC prefix.
const frameHeaderSize = 8

// maxPayload bounds a decoded length prefix: a torn or corrupt header
// must not drive a giant allocation.
const maxPayload = 1 << 30

// errBadFrame reports a frame whose length or checksum does not
// validate.
var errBadFrame = errors.New("store: bad frame")

// AppendFrame appends rec's frame to dst and returns the extended
// slice. It frames in place: the WAL appender passes its group-commit
// buffer as dst.
func AppendFrame(dst []byte, rec Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+8+len(rec.Body)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC placeholder
	start := len(dst)
	dst = append(dst, rec.Kind)
	dst = binary.LittleEndian.AppendUint64(dst, rec.LSN)
	dst = append(dst, rec.Body...)
	binary.LittleEndian.PutUint32(dst[start-4:], checksum(dst[start:]))
	return dst
}

// ReadFrame reads and validates one frame. A clean end between frames
// returns io.EOF; a frame cut short returns io.ErrUnexpectedEOF; an
// implausible length or a checksum mismatch returns an error wrapping
// errBadFrame. Any other error is the reader's own. The log readers
// treat all three as the end of the valid prefix; the stream client
// treats them as a broken stream.
func ReadFrame(r io.Reader) (Record, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, err
	}
	plen := binary.LittleEndian.Uint32(hdr[:4])
	if plen < 9 || plen > maxPayload {
		return Record{}, fmt.Errorf("%w: implausible length %d", errBadFrame, plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			return Record{}, io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	rec := Record{Kind: payload[0], LSN: binary.LittleEndian.Uint64(payload[1:9]), Body: payload[9:]}
	if checksum(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return Record{}, fmt.Errorf("%w: checksum mismatch at lsn-field %d", errBadFrame, rec.LSN)
	}
	return rec, nil
}

// endOfValid reports whether a ReadFrame error only marks where the
// valid frames end (a clean end, a torn or in-flight frame, damaged
// bytes), as opposed to an I/O failure.
func endOfValid(err error) bool {
	return err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, errBadFrame)
}

// checksum is the CRC32 (IEEE) every frame and checkpoint carries.
func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
