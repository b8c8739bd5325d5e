// Replicaset: a durable leader serving over HTTP, two WAL-shipping read
// replicas following it, paced object churn, a measured catch-up, a
// leader failure and a promotion — the whole topology in one process.
//
//	go run ./examples/replicaset
//
// The leader runs the same serving stack cmd/indoorqd uses; each replica
// bootstraps from the leader's checkpoint over /v1/repl/checkpoint and
// tails /v1/repl/wal, folding every record into its own MVCC snapshots
// exactly as crash recovery would. After the leader dies, one replica is
// promoted with indoorq.AdoptIndex and keeps answering — and accepting
// writes — from exactly the state it had applied.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	indoorq "repro"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

const (
	nObjects  = 800
	ticks     = 120
	movesTick = 25
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "replicaset-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// A durable leader behind the real serving stack.
	b, err := indoorq.GenerateMall(indoorq.MallSpec{Floors: 2})
	if err != nil {
		return err
	}
	objs := indoorq.GenerateObjects(b, indoorq.ObjectSpec{N: nObjects, Radius: 8, Seed: 42})
	db, _, err := indoorq.Open(b, objs, indoorq.Options{})
	if err != nil {
		return err
	}
	if err := db.Persist(dir, indoorq.DurabilityOptions{}); err != nil {
		return err
	}
	srv := server.NewLeader(db, server.Config{Heartbeat: 20 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	url := "http://" + ln.Addr().String()
	fmt.Printf("leader: %d objects, serving on %s\n", db.NumObjects(), url)

	// Two read replicas follow it over the wire.
	var reps []*replica.Replica
	for i := 0; i < 2; i++ {
		r := replica.New(wire.NewClient(url, nil), replica.Config{})
		if err := r.Start(context.Background()); err != nil {
			return err
		}
		defer r.Close()
		fmt.Printf("replica %d: bootstrapped from checkpoint at lsn %d\n", i, r.AppliedLSN())
		reps = append(reps, r)
	}

	// Paced churn on the leader while the replicas stream.
	centers := make([]indoorq.Position, len(objs))
	for i, o := range objs {
		centers[i] = o.Center
	}
	for t := 1; t <= ticks; t++ {
		ups := make([]indoorq.ObjectUpdate, 0, movesTick)
		for j := 0; j < movesTick; j++ {
			oid := indoorq.ObjectID((t*13 + j) % nObjects)
			ups = append(ups, indoorq.ObjectUpdate{Op: indoorq.UpdateMove,
				Object: object.PointObject(oid, centers[(t+j)%nObjects])})
		}
		if err := db.ApplyObjectUpdates(ups); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Sync(); err != nil {
		return err
	}
	target := db.Store().DurableLSN()
	for reps[0].AppliedLSN() < target || reps[1].AppliedLSN() < target {
		time.Sleep(5 * time.Millisecond)
	}
	for i, r := range reps {
		st := r.Stats()
		fmt.Printf("replica %d: caught up — applied lsn %d, lag %d records, %d resyncs\n",
			i, st.AppliedLSN, st.LagRecords, st.Resyncs)
	}

	// Replicas answer from their own snapshots.
	q := indoorq.GenerateQueryPoints(db.Building(), 1, 7)[0]
	lr, _, err := db.RangeQuery(q, 60)
	if err != nil {
		return err
	}
	rr, _, err := query.New(reps[0].Index(), query.Options{}).RangeQuery(q, 60)
	if err != nil {
		return err
	}
	fmt.Printf("iRQ(r=60): leader %d objects, replica %d objects\n", len(lr), len(rr))

	// The leader dies. Promote replica 0: its applied prefix becomes a
	// full read/write DB.
	ln.Close()
	srv.Close()
	if err := db.Close(); err != nil {
		return err
	}
	fmt.Println("leader down; promoting replica 0")
	idx, subs := reps[0].Promote()
	promoted := indoorq.AdoptIndex(idx, subs)
	nn, _, err := promoted.KNNQuery(q, 5)
	if err != nil {
		return err
	}
	fmt.Printf("promoted: %d objects, ikNN(k=5) -> %d results\n", promoted.NumObjects(), len(nn))
	if err := promoted.InsertObject(object.PointObject(object.ID(nObjects+1), q)); err != nil {
		return err
	}
	fmt.Printf("promoted accepts writes: %d objects after insert\n", promoted.NumObjects())
	return nil
}
