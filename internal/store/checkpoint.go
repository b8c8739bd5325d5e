package store

import (
	"bytes"
	"fmt"
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
//	u64   object count   | binary objects (appendObject)
//	u64   subscription count | binary registrations (appendSubscription)
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
	Subs []SubscriptionRec
}

// Capture assembles checkpoint data from a live index. The caller must
// have stilled mutators (index.RLock) for the whole call so the building
// and the pinned snapshot agree; subs is the subscription capture taken
// under the same stillness.
func Capture(idx *index.Index, subs []SubscriptionRec, lsn uint64) (Data, error) {
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
	out = appendU32(out, snapVersion)
	out = appendU64(out, d.LSN)
	out = appendI64(out, int64(d.IndexOpts.Fanout))
	out = appendF64(out, d.IndexOpts.Tshape)
	out = append(out, 0) // reserved
	out = appendU32(out, uint32(len(d.BuildingJSON)))
	out = append(out, d.BuildingJSON...)
	out = appendObjects(out, d.Objects)
	out = appendU64(out, uint64(len(d.Subs)))
	for _, s := range d.Subs {
		out = appendSubscription(out, s)
	}
	return appendU32(out, checksum(out[len(snapMagic):]))
}

func decodeSnapshot(raw []byte) (Data, error) {
	var d Data
	if len(raw) < len(snapMagic)+4+4 || !bytes.Equal(raw[:len(snapMagic)], snapMagic[:]) {
		return d, fmt.Errorf("store: not a checkpoint file")
	}
	body := raw[len(snapMagic) : len(raw)-4]
	if sum := (&reader{data: raw[len(raw)-4:]}).u32(); checksum(body) != sum {
		return d, fmt.Errorf("store: checkpoint checksum mismatch")
	}
	r := &reader{data: body}
	if v := r.u32(); v != snapVersion {
		return d, fmt.Errorf("store: unsupported checkpoint version %d", v)
	}
	d.LSN = r.u64()
	d.IndexOpts.Fanout = int(r.i64())
	d.IndexOpts.Tshape = r.f64()
	if b := r.u8(); b != 0 {
		return d, fmt.Errorf("store: checkpoint reserved byte is %d, want 0", b)
	}
	d.BuildingJSON = r.take(int(r.u32()))
	if r.err != nil {
		return d, fmt.Errorf("store: checkpoint %w", r.err)
	}
	var err error
	if d.Objects, err = decodeObjects(r); err != nil {
		return d, fmt.Errorf("store: checkpoint objects: %w", err)
	}
	for n := r.u64(); n > 0 && r.err == nil; n-- {
		s, err := decodeSubscription(r)
		if err != nil {
			return d, fmt.Errorf("store: checkpoint subscriptions: %w", err)
		}
		d.Subs = append(d.Subs, s)
	}
	if r.err != nil {
		return d, fmt.Errorf("store: checkpoint subscriptions: %w", r.err)
	}
	if len(r.data) != 0 {
		return d, fmt.Errorf("store: %d trailing bytes in checkpoint", len(r.data))
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
