package index

import (
	"repro/internal/indoor"
)

// The durability hook. A storage engine (internal/store) registers a
// CommitHook to observe every index mutation from inside the writer
// mutex, after the copy-on-write edit validated and immediately before
// the successor snapshot publishes — the write-ahead discipline: the
// logical operation reaches the log's buffer strictly before any reader
// can observe its effects. The index itself stays storage-agnostic; the
// hook receives a logical Mutation, not bytes.

// MutationKind identifies the operation a Mutation describes.
type MutationKind uint8

const (
	// MutObjects is a coalesced object-layer batch (ApplyObjectUpdates,
	// or a single-object mutator as a one-element batch).
	MutObjects MutationKind = iota + 1
	// MutSetDoorClosed toggles a door's closure state.
	MutSetDoorClosed
	// MutAddPartition adds and indexes a partition (geometry in Part).
	MutAddPartition
	// MutRemovePartition removes a partition and its doors.
	MutRemovePartition
	// MutAttachDoor adds and indexes a door (spec in Door).
	MutAttachDoor
	// MutDetachDoor removes a door.
	MutDetachDoor
	// MutSplit mounts a sliding wall (results in ResultA/ResultB).
	MutSplit
	// MutMerge dismounts a sliding wall (result in ResultA).
	MutMerge
	// MutRebuildSkeleton recomputes the skeleton tier out of band.
	MutRebuildSkeleton
)

// Mutation is the one value for an index mutation: what callers pass to
// Apply, what the commit hook logs and what replay decodes. Pointer
// fields the hook receives (Part, Door, Updates' objects) reference live
// state owned by the writer — hooks must encode them synchronously before
// returning and must not retain them.
type Mutation struct {
	Kind MutationKind

	// Updates is the object batch for MutObjects.
	Updates []ObjectUpdate

	// DoorID and Closed serve MutSetDoorClosed and MutDetachDoor. For
	// MutAttachDoor, DoorID is the door's id (negative: allocate) and Door
	// its spec: position, floor, partitions, direction and closure.
	DoorID indoor.DoorID
	Closed bool
	Door   *indoor.Door

	// PartID serves MutRemovePartition and MutSplit (the split target);
	// PartID2 is MutMerge's second partition. For MutAddPartition, PartID
	// is the partition's id (negative: allocate) and Part its geometry:
	// kind, floor, shape and stair length.
	PartID  indoor.PartitionID
	PartID2 indoor.PartitionID
	Part    *indoor.Partition

	// AlongX and At parameterise MutSplit.
	AlongX bool
	At     float64

	// ResultA/ResultB are the ids MutSplit allocated (ResultA also holds
	// MutMerge's result). Replay verifies its allocations match — the
	// determinism check behind id-exact recovery.
	ResultA, ResultB indoor.PartitionID
}

// CommitHook observes one mutation pre-publish and returns the WAL LSN
// the mutation was logged under (0 if the hook does not log). The LSN is
// stamped onto the successor snapshot so the MVCC timeline and the
// durability timeline stay correlated — Snapshot.LSN addresses the same
// state AsOf-style historical reads reconstruct.
//
// Returning an error refuses the mutation: nothing publishes and the
// building stays as it was. Two exceptions: MutRebuildSkeleton publishes
// anyway, and MutSplit/MutMerge, whose logged result ids come from the
// building edit, leave that edit in place — acceptable only because a
// refusing hook means the log is poisoned and the engine is in fail-stop
// mode (every subsequent mutation will be refused too).
type CommitHook func(m Mutation) (uint64, error)

// SetCommitHook installs (or, with nil, removes) the durability hook.
// It serialises against mutators, so a hook observes every mutation
// committed after SetCommitHook returns.
func (idx *Index) SetCommitHook(h CommitHook) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	idx.commitHook = h
}

// hook runs the commit hook if one is installed, recording the LSN it
// returns for the next publish. Callers hold the writer mutex and call
// it immediately before publish.
func (idx *Index) hook(m Mutation) error {
	if idx.commitHook != nil {
		lsn, err := idx.commitHook(m)
		if err != nil {
			return err
		}
		idx.lastLSN = lsn
	}
	return nil
}
