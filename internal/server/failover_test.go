package server_test

// Crash-failover harness: a leader daemon runs in a CHILD PROCESS and is
// hard-killed (SIGKILL — no flush, no goodbye) mid-stream while two
// replicas follow its WAL over real HTTP. Every tick is one
// ApplyObjectUpdates batch — one WAL record — so a replica can only ever
// hold a whole number of ticks; the tick counter is carried by inserted
// marker objects. After the kill each replica must be byte-equal (serde
// document) to a deterministic oracle replay of its own tick prefix, a
// replica promoted via indoorq.AdoptIndex must answer iRQ/ikNN exactly
// like the oracle, and the recovered leader store must hold at least as
// many ticks as any replica (a replica never outruns the durable log's
// written prefix).

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	indoorq "repro"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

const (
	crashChildEnv = "INDOORQ_CRASH_CHILD"
	crashDirEnv   = "INDOORQ_CRASH_DIR"
	crashPortEnv  = "INDOORQ_CRASH_PORTFILE"

	crashObjects  = 200
	crashMarkerLo = 100000
	crashMoves    = 20
)

func crashWorkload() (*indoorq.Building, []*indoorq.Object, error) {
	b, err := indoorq.GenerateMall(indoorq.MallSpec{Floors: 1})
	if err != nil {
		return nil, nil, err
	}
	return b, indoorq.GenerateObjects(b, indoorq.ObjectSpec{N: crashObjects, Radius: 8, Seed: 4}), nil
}

// crashTick derives tick t's batch purely from t and the initial object
// centres, so the oracle can replay it verbatim. The final insert is the
// tick marker.
func crashTick(t int, centers []indoorq.Position) []indoorq.ObjectUpdate {
	ups := make([]indoorq.ObjectUpdate, 0, crashMoves+1)
	for j := 0; j < crashMoves; j++ {
		oid := object.ID((t*7 + j) % crashObjects)
		ups = append(ups, indoorq.ObjectUpdate{Op: indoorq.UpdateMove, Object: object.PointObject(oid, centers[(t+j+1)%crashObjects])})
	}
	marker := object.PointObject(object.ID(crashMarkerLo+t-1), centers[t%crashObjects])
	return append(ups, indoorq.ObjectUpdate{Op: indoorq.UpdateInsert, Object: marker})
}

func crashCenters(objs []*indoorq.Object) []indoorq.Position {
	out := make([]indoorq.Position, len(objs))
	for i, o := range objs {
		out[i] = o.Center
	}
	return out
}

// TestMain intercepts the re-exec of the test binary: with the child env
// set, this process IS the leader daemon to be killed.
func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) != "" {
		if err := crashChild(os.Getenv(crashDirEnv), os.Getenv(crashPortEnv)); err != nil {
			fmt.Fprintln(os.Stderr, "crash child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// crashChild recovers the store, serves the daemon on an ephemeral port
// (published through portFile), and applies ticks until killed.
func crashChild(dir, portFile string) error {
	db, err := indoorq.OpenDir(dir, indoorq.DurabilityOptions{GroupWindow: time.Millisecond, CompactBytes: -1})
	if err != nil {
		return err
	}
	srv := server.NewLeader(db, server.Config{Heartbeat: 2 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if err := os.WriteFile(portFile, []byte(ln.Addr().String()), 0o644); err != nil {
		return err
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()

	_, objs, err := crashWorkload()
	if err != nil {
		return err
	}
	centers := crashCenters(objs)
	deadline := time.Now().Add(30 * time.Second) // watchdog: never outlive an orphaned run
	for t := 1; time.Now().Before(deadline); t++ {
		if err := db.ApplyObjectUpdates(crashTick(t, centers)); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func TestLeaderCrashFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness")
	}
	dir := t.TempDir()
	b, objs, err := crashWorkload()
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := indoorq.Open(b, objs, indoorq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir, indoorq.DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	portFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), crashChildEnv+"=1", crashDirEnv+"="+dir, crashPortEnv+"="+portFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); ; {
		raw, err := os.ReadFile(portFile)
		if err == nil && len(raw) > 0 {
			addr = string(raw)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader child never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Two replicas follow the doomed leader over the wire.
	var reps []*replica.Replica
	for i := 0; i < 2; i++ {
		r := replica.New(wire.NewClient("http://"+addr, nil), replica.Config{ReconnectDelay: 5 * time.Millisecond})
		if err := r.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		reps = append(reps, r)
	}

	// Let the stream run mid-churn, then pull the plug.
	for deadline := time.Now().Add(10 * time.Second); reps[0].AppliedLSN() < 40 || reps[1].AppliedLSN() < 40; {
		if time.Now().After(deadline) {
			t.Fatalf("replicas never caught churn (applied %d / %d)", reps[0].AppliedLSN(), reps[1].AppliedLSN())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL mid-stream
		t.Fatal(err)
	}
	_ = cmd.Wait()
	killed = true
	// Let in-flight frame deliveries drain before freezing the verdict.
	time.Sleep(100 * time.Millisecond)

	// The recovered leader store is the durable-prefix oracle's upper
	// bound: no replica may hold more ticks than survived on disk.
	rec, err := indoorq.OpenDir(dir, indoorq.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	recTicks := rec.NumObjects() - crashObjects
	if recTicks < 40/2 {
		t.Fatalf("recovered leader holds %d ticks; kill came too early", recTicks)
	}

	_, oobjs, err := crashWorkload()
	if err != nil {
		t.Fatal(err)
	}
	centers := crashCenters(oobjs)
	for i, r := range reps {
		ticks := r.Index().Current().Objects().Len() - crashObjects
		if ticks <= 0 {
			t.Fatalf("replica %d applied no ticks", i)
		}
		if ticks > recTicks {
			t.Fatalf("replica %d holds %d ticks, more than the %d that survived on disk", i, ticks, recTicks)
		}
		// Oracle: a fresh DB replaying exactly this replica's tick prefix.
		ob, o2, err := crashWorkload()
		if err != nil {
			t.Fatal(err)
		}
		oracle, _, err := indoorq.Open(ob, o2, indoorq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for tk := 1; tk <= ticks; tk++ {
			if err := oracle.ApplyObjectUpdates(crashTick(tk, centers)); err != nil {
				t.Fatal(err)
			}
		}
		// Promote and compare byte-for-byte, then answer queries.
		idx, subs := r.Promote()
		promoted := indoorq.AdoptIndex(idx, subs)
		var pdoc, odoc bytes.Buffer
		if err := promoted.Save(&pdoc); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Save(&odoc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pdoc.Bytes(), odoc.Bytes()) {
			t.Fatalf("replica %d (%d ticks) diverged from its durable-prefix oracle", i, ticks)
		}
		for _, q := range indoorq.GenerateQueryPoints(oracle.Building(), 3, 9) {
			wr, _, err := oracle.RangeQuery(q, 50)
			if err != nil {
				t.Fatal(err)
			}
			gr, _, err := promoted.RangeQuery(q, 50)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResults(wire.ResultsOf(wr), wire.ResultsOf(gr)) {
				t.Fatalf("replica %d: promoted iRQ answers diverge from oracle", i)
			}
			wk, _, err := oracle.KNNQuery(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			gk, _, err := promoted.KNNQuery(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResults(wire.ResultsOf(wk), wire.ResultsOf(gk)) {
				t.Fatalf("replica %d: promoted ikNN answers diverge from oracle", i)
			}
		}
	}
}
