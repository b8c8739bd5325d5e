package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"sort"

	"repro/internal/fsfault"
	"repro/internal/index"
	"repro/internal/object"
	"repro/internal/serde"
)

// The checkpoint (snapshot) file format, version 1:
//
//	magic "IDQSNAP1"                          8 bytes
//	u32   format version                      = 1
//	u64   LSN of the last WAL record covered
//	i64   index fanout | f64 Tshape | u8 reserved (= 0)
//	u32   building length | serde JSON document (id-exact, allocators included)
//	u64   object count   | binary objects (serde.AppendObject)
//	u64   subscription count | binary registrations (serde.AppendSubscription)
//	u32   CRC32 over everything after the magic
//
// Files are written to a temporary name and atomically renamed into
// place, then the file and its directory are fsynced — a crash leaves
// either the complete new checkpoint or the old state, never a partial
// file under the real name. Recovery additionally validates the CRC, so
// a checkpoint that does decode is trusted wholesale.

var snapMagic = [8]byte{'I', 'D', 'Q', 'S', 'N', 'A', 'P', '1'}

// snapVersion identifies the checkpoint schema.
const snapVersion = 1

// Data is the logical content of a checkpoint: everything needed to
// rebuild a database at one point of the log, plus the LSN that point
// corresponds to.
type Data struct {
	// LSN is the last WAL record the checkpoint covers; recovery replays
	// only records beyond it.
	LSN uint64
	// IndexOpts reproduce the original decomposition (fanout, Tshape) —
	// required for the rebuilt index to behave identically.
	IndexOpts index.Options
	// BuildingJSON is the id-exact serde document of the building
	// (partitions, doors, id allocators; no objects).
	BuildingJSON []byte
	// Objects is the indexed object set.
	Objects []*object.Object
	// Subs are the registered standing queries.
	Subs []serde.SubscriptionRec
}

// Capture assembles checkpoint data from a live index. The caller must
// have stilled mutators (index.RLock) for the whole call so the building
// and the pinned snapshot agree; subs is the subscription capture taken
// under the same stillness.
func Capture(idx *index.Index, subs []serde.SubscriptionRec, lsn uint64) (Data, error) {
	var bb bytes.Buffer
	if err := serde.Encode(&bb, idx.Building(), nil); err != nil {
		return Data{}, fmt.Errorf("store: encode building: %w", err)
	}
	snap := idx.Current()
	st := snap.Objects()
	ids := st.IDs()
	objs := make([]*object.Object, 0, len(ids))
	for _, id := range ids {
		objs = append(objs, st.Get(id))
	}
	return Data{
		LSN:          lsn,
		IndexOpts:    idx.Options(),
		BuildingJSON: bb.Bytes(),
		Objects:      objs,
		Subs:         subs,
	}, nil
}

func encodeSnapshot(d Data) []byte {
	out := make([]byte, 0, 64+len(d.BuildingJSON)+len(d.Objects)*256)
	out = append(out, snapMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, snapVersion)
	out = binary.LittleEndian.AppendUint64(out, d.LSN)
	out = binary.LittleEndian.AppendUint64(out, uint64(int64(d.IndexOpts.Fanout)))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(d.IndexOpts.Tshape))
	out = append(out, 0) // reserved
	out = binary.LittleEndian.AppendUint32(out, uint32(len(d.BuildingJSON)))
	out = append(out, d.BuildingJSON...)
	out = serde.AppendObjects(out, d.Objects)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(d.Subs)))
	for _, s := range d.Subs {
		out = serde.AppendSubscription(out, s)
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[len(snapMagic):]))
	return out
}

func decodeSnapshot(raw []byte) (Data, error) {
	var d Data
	if len(raw) < len(snapMagic)+4+4 || !bytes.Equal(raw[:len(snapMagic)], snapMagic[:]) {
		return d, fmt.Errorf("store: not a checkpoint file")
	}
	body, tail := raw[len(snapMagic):len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return d, fmt.Errorf("store: checkpoint checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(body); v != snapVersion {
		return d, fmt.Errorf("store: unsupported checkpoint version %d", v)
	}
	body = body[4:]
	take := func(n int) ([]byte, error) {
		if len(body) < n {
			return nil, fmt.Errorf("store: checkpoint truncated")
		}
		out := body[:n]
		body = body[n:]
		return out, nil
	}
	b8, err := take(8)
	if err != nil {
		return d, err
	}
	d.LSN = binary.LittleEndian.Uint64(b8)
	if b8, err = take(8); err != nil {
		return d, err
	}
	d.IndexOpts.Fanout = int(int64(binary.LittleEndian.Uint64(b8)))
	if b8, err = take(8); err != nil {
		return d, err
	}
	d.IndexOpts.Tshape = math.Float64frombits(binary.LittleEndian.Uint64(b8))
	b1, err := take(1)
	if err != nil {
		return d, err
	}
	if b1[0] != 0 {
		return d, fmt.Errorf("store: checkpoint reserved byte is %d, want 0", b1[0])
	}
	if b8, err = take(4); err != nil {
		return d, err
	}
	blen := int(binary.LittleEndian.Uint32(b8))
	if d.BuildingJSON, err = take(blen); err != nil {
		return d, err
	}
	if d.Objects, body, err = serde.DecodeObjects(body); err != nil {
		return d, fmt.Errorf("store: checkpoint objects: %w", err)
	}
	if b8, err = take(8); err != nil {
		return d, err
	}
	nsubs := binary.LittleEndian.Uint64(b8)
	for i := uint64(0); i < nsubs; i++ {
		var s serde.SubscriptionRec
		if s, body, err = serde.DecodeSubscription(body); err != nil {
			return d, fmt.Errorf("store: checkpoint subscriptions: %w", err)
		}
		d.Subs = append(d.Subs, s)
	}
	if len(body) != 0 {
		return d, fmt.Errorf("store: %d trailing bytes in checkpoint", len(body))
	}
	return d, nil
}

// WriteSnapshot writes checkpoint data to path atomically: temporary
// file in the same directory, fsync, rename, directory fsync. It is the
// backing of both the store's own generations and the facade's
// standalone DB.Checkpoint(path) export.
func WriteSnapshot(path string, d Data) error {
	return writeSnapshotFS(fsfault.OS, path, d)
}

// writeSnapshotFS is WriteSnapshot against an injectable filesystem. A
// failure at any step — create, write, fsync, rename — leaves either
// the complete new checkpoint or the old state; the temporary file is
// removed on a best-effort basis.
func writeSnapshotFS(fs fsfault.FS, path string, d Data) error {
	raw := encodeSnapshot(d)
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, ".snap-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); fs.Remove(tmpName) }
	if _, err := tmp.Write(raw); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		fs.Remove(tmpName)
		return err
	}
	if err := fs.Rename(tmpName, path); err != nil {
		fs.Remove(tmpName)
		return err
	}
	return syncDir(fs, dir)
}

// ReadSnapshot reads and validates a checkpoint file.
func ReadSnapshot(path string) (Data, error) {
	return readSnapshotFS(fsfault.OS, path)
}

func readSnapshotFS(fs fsfault.FS, path string) (Data, error) {
	raw, err := fs.ReadFile(path)
	if err != nil {
		return Data{}, err
	}
	return decodeSnapshot(raw)
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable.
func syncDir(fs fsfault.FS, dir string) error {
	f, err := fs.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// generations lists the checkpoint and WAL generation numbers present in
// a store directory, each sorted ascending.
func generations(fs fsfault.FS, dir string) (ckpts, wals []uint64, err error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		var gen uint64
		name := e.Name()
		if n, _ := fmt.Sscanf(name, "checkpoint-%d.ckpt", &gen); n == 1 && name == ckptName(gen) {
			ckpts = append(ckpts, gen)
		}
		if n, _ := fmt.Sscanf(name, "wal-%d.log", &gen); n == 1 && name == walName(gen) {
			wals = append(wals, gen)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return ckpts, wals, nil
}
