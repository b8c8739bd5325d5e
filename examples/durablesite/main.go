// Durablesite demonstrates the durable storage engine end to end,
// including a real crash: the parent process persists a mall workload,
// re-executes itself as a child that applies movement ticks against the
// write-ahead log, hard-kills the child mid-batch (SIGKILL — no flush,
// no goodbye), then reopens the store and proves the recovered state is
// exactly the deterministic replay of the durable tick prefix.
//
//	go run ./examples/durablesite
//
// Every tick is one ApplyObjectUpdates batch — one WAL record, one
// snapshot swap — so recovery can only land on a whole number of ticks:
// the kill may lose the records still queued behind the fsync in
// flight, but never tears a batch in half. The tick counter is carried
// by the inserted marker objects, so the parent can rebuild an oracle DB
// at the same tick and compare the two serde documents byte for byte.
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"time"

	"repro"
	"repro/internal/object"
)

const (
	childEnv  = "DURABLESITE_CHILD"
	dirEnv    = "DURABLESITE_DIR"
	nObjects  = 300
	markerLo  = 100000 // inserted marker ids start here; count = durable ticks
	movesTick = 25
)

func workload() (*indoorq.Building, []*indoorq.Object, error) {
	b, err := indoorq.GenerateMall(indoorq.MallSpec{Floors: 1})
	if err != nil {
		return nil, nil, err
	}
	return b, indoorq.GenerateObjects(b, indoorq.ObjectSpec{N: nObjects, Radius: 8, Seed: 4}), nil
}

// tickBatch derives tick t's update batch purely from t and the initial
// object centres, so the oracle can replay it verbatim.
func tickBatch(t int, centers []indoorq.Position) []indoorq.ObjectUpdate {
	ups := make([]indoorq.ObjectUpdate, 0, movesTick+1)
	for j := 0; j < movesTick; j++ {
		oid := indoorq.ObjectID((t*7 + j) % nObjects)
		dst := centers[(t+j+1)%nObjects]
		ups = append(ups, indoorq.ObjectUpdate{Op: indoorq.UpdateMove, Object: object.PointObject(object.ID(oid), dst)})
	}
	marker := object.PointObject(object.ID(markerLo+t-1), centers[t%nObjects])
	return append(ups, indoorq.ObjectUpdate{Op: indoorq.UpdateInsert, Object: marker})
}

func centersOf(objs []*indoorq.Object) []indoorq.Position {
	out := make([]indoorq.Position, len(objs))
	for i, o := range objs {
		out[i] = o.Center
	}
	return out
}

// child opens the persisted store and applies ticks until it is killed.
func child(dir string) error {
	db, err := indoorq.OpenDir(dir, indoorq.DurabilityOptions{})
	if err != nil {
		return err
	}
	_, objs, err := workload()
	if err != nil {
		return err
	}
	centers := centersOf(objs)
	for t := 1; ; t++ {
		if err := db.ApplyObjectUpdates(tickBatch(t, centers)); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

func run() error {
	if dir := os.Getenv(dirEnv); os.Getenv(childEnv) != "" {
		return child(dir)
	}

	dir, err := os.MkdirTemp("", "durablesite-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b, objs, err := workload()
	if err != nil {
		return err
	}
	db, _, err := indoorq.Open(b, objs, indoorq.Options{})
	if err != nil {
		return err
	}
	if err := db.Persist(dir, indoorq.DurabilityOptions{}); err != nil {
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	fmt.Printf("persisted %d objects to %s\n", nObjects, dir)

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"=1", dirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	time.Sleep(400 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil { // SIGKILL mid-batch
		return err
	}
	_ = cmd.Wait()
	fmt.Println("child hard-killed mid-stream (SIGKILL, no flush)")

	rec, err := indoorq.OpenDir(dir, indoorq.DurabilityOptions{})
	if err != nil {
		return err
	}
	defer rec.Close()
	ri := rec.RecoveryInfo()
	ticks := rec.NumObjects() - nObjects
	fmt.Printf("recovered: %d WAL records replayed, %d torn bytes truncated, %d durable ticks\n",
		ri.Replayed, ri.TruncatedBytes, ticks)

	// Oracle: a fresh in-memory DB that applies exactly the durable
	// prefix of ticks. Byte-identical serde documents prove recovery
	// reproduced the prefix and nothing else.
	ob, oobjs, err := workload()
	if err != nil {
		return err
	}
	oracle, _, err := indoorq.Open(ob, oobjs, indoorq.Options{})
	if err != nil {
		return err
	}
	centers := centersOf(oobjs)
	for t := 1; t <= ticks; t++ {
		if err := oracle.ApplyObjectUpdates(tickBatch(t, centers)); err != nil {
			return err
		}
	}
	var recDoc, oracleDoc bytes.Buffer
	if err := rec.Save(&recDoc); err != nil {
		return err
	}
	if err := oracle.Save(&oracleDoc); err != nil {
		return err
	}
	if !bytes.Equal(recDoc.Bytes(), oracleDoc.Bytes()) {
		return fmt.Errorf("recovered state differs from the %d-tick oracle", ticks)
	}
	fmt.Printf("recovered state == oracle replay of %d ticks (%d bytes of serde document)\n",
		ticks, recDoc.Len())

	q := indoorq.GenerateQueryPoints(rec.Building(), 1, 9)[0]
	res, _, err := rec.KNNQuery(q, 5)
	if err != nil {
		return err
	}
	fmt.Printf("ikNNQ(k=5) on the recovered index at %v: %d answers — business as usual\n", q, len(res))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "durablesite:", err)
		os.Exit(1)
	}
}
