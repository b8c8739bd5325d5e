package store

// The record and checkpoint field codec: fixed-width little-endian
// fields, appended by the append* helpers and read back by one sticky
// reader. Every record body, the checkpoint file and the object and
// subscription payloads inside both use it. An uncertain object is
// mostly float64 instance coordinates, and a movement tick logs hundreds
// of them per record on the hot write path, so objects are binary here
// rather than serde's JSON. Integrity is the frame's job (frame.go) and
// the checkpoint's whole-file CRC.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// errTruncated is the reader's sticky error.
var errTruncated = errors.New("truncated")

// reader decodes fields from a byte slice. The first short read sticks
// in err and empties data, so every later read returns zero and a
// decoder checks err once at the end.
type reader struct {
	data []byte
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
	r.data = nil
}

// take returns the next n bytes (nil once the reader has failed).
func (r *reader) take(n int) []byte {
	if n < 0 || len(r.data) < n {
		r.fail()
		return nil
	}
	v := r.data[:n:n]
	r.data = r.data[n:]
	return v
}

func (r *reader) u8() byte {
	if len(r.data) < 1 {
		r.fail()
		return 0
	}
	v := r.data[0]
	r.data = r.data[1:]
	return v
}

func (r *reader) u32() uint32 {
	if len(r.data) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data)
	r.data = r.data[4:]
	return v
}

func (r *reader) u64() uint64 {
	if len(r.data) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// appendObject appends one object.
func appendObject(dst []byte, o *object.Object) []byte {
	dst = appendI64(dst, int64(o.ID))
	dst = appendF64(dst, o.Center.Pt.X)
	dst = appendF64(dst, o.Center.Pt.Y)
	dst = appendI64(dst, int64(o.Center.Floor))
	dst = appendF64(dst, o.Radius)
	dst = appendU64(dst, uint64(len(o.Instances)))
	for _, in := range o.Instances {
		dst = appendF64(dst, in.Pos.Pt.X)
		dst = appendF64(dst, in.Pos.Pt.Y)
		dst = appendI64(dst, int64(in.Pos.Floor))
		dst = appendF64(dst, in.P)
	}
	return dst
}

// instanceSize is one encoded instance: x, y, floor, probability.
const instanceSize = 32

// decodeObject reads one object and validates it (§II-B contract).
func decodeObject(r *reader) (*object.Object, error) {
	o := &object.Object{ID: object.ID(r.i64())}
	o.Center = indoor.Position{Pt: geom.Pt(r.f64(), r.f64()), Floor: int(r.i64())}
	o.Radius = r.f64()
	n := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	// A corrupt count must not drive a large allocation before
	// validation gets a say.
	if n > object.MaxInstances || n > uint64(len(r.data))/instanceSize {
		return nil, fmt.Errorf("object %d has implausible instance count %d", o.ID, n)
	}
	o.Instances = make([]object.Instance, n)
	for i := range o.Instances {
		o.Instances[i] = object.Instance{
			Pos: indoor.Position{Pt: geom.Pt(r.f64(), r.f64()), Floor: int(r.i64())},
			P:   r.f64(),
		}
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// appendObjects appends a counted sequence of objects.
func appendObjects(dst []byte, objs []*object.Object) []byte {
	dst = appendU64(dst, uint64(len(objs)))
	for _, o := range objs {
		dst = appendObject(dst, o)
	}
	return dst
}

// decodeObjects reads a counted sequence of objects.
func decodeObjects(r *reader) ([]*object.Object, error) {
	n := r.u64()
	objs := make([]*object.Object, 0, min(n, 1<<16))
	for i := uint64(0); i < n && r.err == nil; i++ {
		o, err := decodeObject(r)
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	return objs, r.err
}

// Subscription kinds in SubscriptionRec.Kind.
const (
	// SubscriptionRange marks a standing range query (R metres).
	SubscriptionRange uint8 = 0
	// SubscriptionKNN marks a standing k-nearest-neighbour query.
	SubscriptionKNN uint8 = 1
)

// SubscriptionRec is the persisted registration of one standing query:
// the subscription's durable identity (its handle and spec). Result
// state is deliberately not persisted — recovery re-registers the
// subscription and recomputes its results against the recovered index.
type SubscriptionRec struct {
	ID    int64
	Kind  uint8
	X, Y  float64
	Floor int64
	R     float64 // SubscriptionRange: the query radius in metres
	K     int64   // SubscriptionKNN: the k
}

// Position returns the record's query point.
func (s SubscriptionRec) Position() indoor.Position {
	return indoor.Position{Pt: geom.Pt(s.X, s.Y), Floor: int(s.Floor)}
}

// appendSubscription appends one subscription registration.
func appendSubscription(dst []byte, s SubscriptionRec) []byte {
	dst = appendI64(dst, s.ID)
	dst = append(dst, s.Kind)
	dst = appendF64(dst, s.X)
	dst = appendF64(dst, s.Y)
	dst = appendI64(dst, s.Floor)
	dst = appendF64(dst, s.R)
	dst = appendI64(dst, s.K)
	return dst
}

// decodeSubscription reads one subscription registration.
func decodeSubscription(r *reader) (SubscriptionRec, error) {
	s := SubscriptionRec{ID: r.i64(), Kind: r.u8(), X: r.f64(), Y: r.f64(), Floor: r.i64(), R: r.f64(), K: r.i64()}
	if r.err != nil {
		return s, r.err
	}
	if s.Kind != SubscriptionRange && s.Kind != SubscriptionKNN {
		return s, fmt.Errorf("unknown subscription kind %d", s.Kind)
	}
	return s, nil
}

// encodeMutation turns an index mutation into its WAL record kind and
// body. It runs synchronously inside the commit hook, so the live
// Partition/Door/Object payloads it reads cannot change underneath it.
func encodeMutation(m index.Mutation) (byte, []byte, error) {
	switch m.Kind {
	case index.MutObjects:
		body := appendU64(nil, uint64(len(m.Updates)))
		for _, up := range m.Updates {
			body = append(body, byte(up.Op))
			if up.Op == index.UpdateDelete {
				body = appendI64(body, int64(up.ID))
			} else {
				if up.Object == nil {
					return 0, nil, fmt.Errorf("store: object update without object")
				}
				body = appendObject(body, up.Object)
			}
		}
		return recObjects, body, nil
	case index.MutSetDoorClosed:
		return recSetDoorClosed, appendBool(appendI64(nil, int64(m.DoorID)), m.Closed), nil
	case index.MutAddPartition:
		p := m.Part
		if p == nil {
			return 0, nil, fmt.Errorf("store: AddPartition mutation without partition payload")
		}
		body := appendI64(nil, int64(m.PartID))
		body = append(body, byte(p.Kind))
		body = appendI64(body, int64(p.Floor))
		body = appendF64(body, p.StairLength)
		body = appendU64(body, uint64(len(p.Shape.V)))
		for _, v := range p.Shape.V {
			body = appendF64(body, v.X)
			body = appendF64(body, v.Y)
		}
		return recAddPartition, body, nil
	case index.MutRemovePartition:
		return recRemovePartition, appendI64(nil, int64(m.PartID)), nil
	case index.MutAttachDoor:
		d := m.Door
		if d == nil {
			return 0, nil, fmt.Errorf("store: AttachDoor mutation without door payload")
		}
		body := appendI64(nil, int64(m.DoorID))
		body = appendF64(body, d.Pos.X)
		body = appendF64(body, d.Pos.Y)
		body = appendI64(body, int64(d.Floor))
		body = appendI64(body, int64(d.P1))
		body = appendI64(body, int64(d.P2))
		flags := byte(0)
		if d.OneWay {
			flags |= 1
		}
		if d.Closed {
			flags |= 2
		}
		body = append(body, flags)
		body = appendI64(body, int64(d.From))
		body = appendI64(body, int64(d.To))
		return recAttachDoor, body, nil
	case index.MutDetachDoor:
		return recDetachDoor, appendI64(nil, int64(m.DoorID)), nil
	case index.MutSplit:
		body := appendBool(appendI64(nil, int64(m.PartID)), m.AlongX)
		body = appendF64(body, m.At)
		body = appendI64(body, int64(m.ResultA))
		body = appendI64(body, int64(m.ResultB))
		return recSplit, body, nil
	case index.MutMerge:
		body := appendI64(nil, int64(m.PartID))
		body = appendI64(body, int64(m.PartID2))
		body = appendI64(body, int64(m.ResultA))
		return recMerge, body, nil
	case index.MutRebuildSkeleton:
		return recRebuildSkeleton, nil, nil
	}
	return 0, nil, fmt.Errorf("store: unknown mutation kind %d", m.Kind)
}

// decodeMutation is the inverse of encodeMutation: it parses a mutation
// record back into the index mutation it logged, without applying it.
func decodeMutation(rec Record) (index.Mutation, error) {
	var m index.Mutation
	r := &reader{data: rec.Body}
	switch rec.Kind {
	case recObjects:
		m.Kind = index.MutObjects
		var err error
		m.Updates, err = decodeObjectBatch(rec.Body)
		return m, err
	case recSetDoorClosed:
		m.Kind = index.MutSetDoorClosed
		m.DoorID = indoor.DoorID(r.i64())
		m.Closed = r.u8() != 0
	case recAddPartition:
		m.Kind = index.MutAddPartition
		m.PartID = indoor.PartitionID(r.i64())
		p := &indoor.Partition{Kind: indoor.Kind(r.u8()), Floor: int(r.i64()), StairLength: r.f64()}
		nv := r.u64()
		if nv > uint64(len(r.data))/16 {
			return m, fmt.Errorf("implausible vertex count %d", nv)
		}
		for i := uint64(0); i < nv; i++ {
			p.Shape.V = append(p.Shape.V, geom.Pt(r.f64(), r.f64()))
		}
		m.Part = p
	case recRemovePartition:
		m.Kind = index.MutRemovePartition
		m.PartID = indoor.PartitionID(r.i64())
	case recAttachDoor:
		m.Kind = index.MutAttachDoor
		m.DoorID = indoor.DoorID(r.i64())
		d := &indoor.Door{Pos: geom.Pt(r.f64(), r.f64()), Floor: int(r.i64()),
			P1: indoor.PartitionID(r.i64()), P2: indoor.PartitionID(r.i64())}
		flags := r.u8()
		d.OneWay, d.Closed = flags&1 != 0, flags&2 != 0
		d.From, d.To = indoor.PartitionID(r.i64()), indoor.PartitionID(r.i64())
		m.Door = d
	case recDetachDoor:
		m.Kind = index.MutDetachDoor
		m.DoorID = indoor.DoorID(r.i64())
	case recSplit:
		m.Kind = index.MutSplit
		m.PartID = indoor.PartitionID(r.i64())
		m.AlongX = r.u8() != 0
		m.At = r.f64()
		m.ResultA, m.ResultB = indoor.PartitionID(r.i64()), indoor.PartitionID(r.i64())
	case recMerge:
		m.Kind = index.MutMerge
		m.PartID, m.PartID2 = indoor.PartitionID(r.i64()), indoor.PartitionID(r.i64())
		m.ResultA = indoor.PartitionID(r.i64())
	case recRebuildSkeleton:
		m.Kind = index.MutRebuildSkeleton
	default:
		return m, fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	return m, r.err
}

// decodeObjectBatch parses a recObjects body into the update batch it
// logged, without applying it.
func decodeObjectBatch(body []byte) ([]index.ObjectUpdate, error) {
	r := &reader{data: body}
	n := r.u64()
	// Every update needs at least an op byte and an 8-byte id, so a
	// count beyond len/9 is corrupt — reject before the allocation,
	// not after (a CRC-colliding record must not OOM recovery).
	if n > uint64(len(r.data))/9+1 {
		return nil, fmt.Errorf("implausible batch size %d for %d-byte body", n, len(r.data))
	}
	ups := make([]index.ObjectUpdate, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		up := index.ObjectUpdate{Op: index.UpdateOp(r.u8())}
		if up.Op == index.UpdateDelete {
			up.ID = object.ID(r.i64())
		} else if r.err == nil {
			o, err := decodeObject(r)
			if err != nil {
				return nil, err
			}
			up.Object = o
		}
		ups = append(ups, up)
	}
	return ups, r.err
}

// ObjectUpdates decodes the record's object batch when it is one
// (kind recObjects). ok is false for every other record kind, letting a
// log scanner pick out object movement without applying anything.
func (rec Record) ObjectUpdates() (ups []index.ObjectUpdate, ok bool, err error) {
	if rec.Kind != recObjects {
		return nil, false, nil
	}
	ups, err = decodeObjectBatch(rec.Body)
	return ups, true, err
}

// PartitionChanging reports whether replaying the record can move
// partition boundaries (add/remove/split/merge) — the signal a log
// scanner uses to refresh the snapshot it locates positions against.
// Door records and skeleton rebuilds alter routing, not the partition
// a position falls in.
func (rec Record) PartitionChanging() bool {
	switch rec.Kind {
	case recAddPartition, recRemovePartition, recSplit, recMerge:
		return true
	}
	return false
}
