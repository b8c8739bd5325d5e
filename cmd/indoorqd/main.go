// Command indoorqd is the networked serving daemon: a long-lived HTTP
// process answering indoor range and kNN queries, accepting object and
// topology mutations, streaming subscription events, and — on a durable
// leader — shipping its write-ahead log to read replicas.
//
// Leader (durable, with replication feed):
//
//	indoorqd -addr :7070 -dir /var/lib/indoorq
//
// An empty or missing -dir is seeded with a synthetic mall (-floors,
// -objects control its size); an existing store directory is recovered.
// Omitting -dir runs an ephemeral leader (no durability, no replication
// feed).
//
// Read replica (bootstraps from the leader's checkpoint, then follows
// its WAL; serves queries and stats, refuses mutations):
//
//	indoorqd -addr :7071 -follow http://leader:7070
//
// SIGINT/SIGTERM shut down gracefully: the listener drains, streams
// close, and a leader's store flushes and fsyncs its log.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	indoorq "repro"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", ":7070", "listen address")
		dir      = flag.String("dir", "", "store directory (leader mode); empty runs an ephemeral leader")
		follow   = flag.String("follow", "", "leader URL; makes this daemon a read replica")
		floors   = flag.Int("floors", 2, "synthetic mall floors when seeding a fresh store")
		objects  = flag.Int("objects", 2000, "synthetic objects when seeding a fresh store")
		window   = flag.Duration("coalesce", 2*time.Millisecond, "query coalescing window (negative disables)")
		maxBatch = flag.Int("max-batch", 64, "max queries per coalesced serve-pool batch")
		inflight = flag.Int("max-inflight", 256, "admission bound on concurrent requests")
		workers  = flag.Int("workers", 0, "serve-pool workers per batch (0 = GOMAXPROCS)")
		hb       = flag.Duration("heartbeat", 200*time.Millisecond, "replication stream heartbeat")
		readyLag = flag.Int64("ready-max-lag", 0, "replica /readyz lag bound in records (0 = default 4096, negative disables)")
		chaos    = flag.Bool("chaos", false, "expose POST /v1/chaos/{poison,compact}: fail-stop or compact the store on demand (drills only)")
	)
	flag.Parse()
	log.SetPrefix("indoorqd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	cfg := server.Config{
		CoalesceWindow: *window,
		MaxBatch:       *maxBatch,
		MaxInFlight:    *inflight,
		Workers:        *workers,
		Heartbeat:      *hb,
		ReadyMaxLag:    *readyLag,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var (
		srv      *server.Server
		shutdown func()
		leaderDB *indoorq.DB // nil on a replica; the chaos drill's target
	)
	if *follow != "" {
		rep := replica.New(wire.NewClient(*follow, nil), replica.Config{})
		// The leader may not be up yet (or mid-restart): keep retrying
		// the bootstrap until it answers or SIGINT/SIGTERM ends the wait.
		// The retry log is rate-limited — a leader that stays down for an
		// hour produces a handful of lines, not thousands.
		var (
			attempts int
			lastLog  time.Time
		)
		for {
			err := rep.Start(ctx)
			if err == nil {
				break
			}
			attempts++
			if attempts == 1 || time.Since(lastLog) >= 10*time.Second {
				log.Printf("replica bootstrap from %s: %v (attempt %d; retrying every 1s, logging at most every 10s)", *follow, err, attempts)
				lastLog = time.Now()
			}
			select {
			case <-ctx.Done():
				log.Printf("shutdown requested during bootstrap (after %d attempts)", attempts)
				return
			case <-time.After(time.Second):
			}
		}
		log.Printf("replica of %s: bootstrapped at lsn %d, %d objects", *follow, rep.AppliedLSN(), rep.Index().Current().Objects().Len())
		srv = server.NewReplica(rep, cfg)
		shutdown = rep.Close
	} else {
		db, err := openLeader(*dir, *floors, *objects)
		if err != nil {
			log.Fatal(err)
		}
		mode := "ephemeral"
		if db.Store() != nil {
			mode = "durable at " + *dir
		}
		log.Printf("leader (%s): %d objects, %d subscriptions", mode, db.NumObjects(), db.NumSubscriptions())
		srv = server.NewLeader(db, cfg)
		leaderDB = db
		shutdown = func() {
			if err := db.Close(); err != nil {
				log.Printf("store close: %v", err)
			}
		}
	}

	handler := srv.Handler()
	if *chaos {
		handler = withChaosEndpoints(handler, leaderDB)
		log.Print("chaos endpoints enabled (POST /v1/chaos/poison)")
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		<-ctx.Done()
		log.Print("shutting down")
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(dctx)
	}()
	log.Printf("listening on %s", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	srv.Close()
	shutdown()
}

// withChaosEndpoints mounts the drill-only fault hooks in front of the
// daemon's handler. POST /v1/chaos/poison fail-stops a durable leader's
// store exactly as a log I/O failure would — the supervised way to
// rehearse degraded read-only mode and the health/alerting around it
// without breaking a real disk. POST /v1/chaos/compact folds the log
// into a fresh checkpoint and prunes every older generation, which is
// how a drill rehearses the "history pruned" refusal on the time-travel
// endpoints.
func withChaosEndpoints(h http.Handler, db *indoorq.DB) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	durable := func(w http.ResponseWriter, r *http.Request) bool {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return false
		}
		if db == nil || db.Store() == nil {
			http.Error(w, "no durable store to drill against", http.StatusNotFound)
			return false
		}
		return true
	}
	mux.HandleFunc("/v1/chaos/poison", func(w http.ResponseWriter, r *http.Request) {
		if !durable(w, r) {
			return
		}
		db.Store().Poison(nil)
		log.Print("chaos: store poisoned; leader is degraded read-only")
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/chaos/compact", func(w http.ResponseWriter, r *http.Request) {
		if !durable(w, r) {
			return
		}
		if err := db.Compact(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		log.Print("chaos: log compacted; history below the new checkpoint is pruned")
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// openLeader recovers a store directory, seeds a fresh one, or builds an
// ephemeral DB when dir is empty.
func openLeader(dir string, floors, objects int) (*indoorq.DB, error) {
	if dir != "" {
		if hasStore(dir) {
			db, err := indoorq.OpenDir(dir, indoorq.DurabilityOptions{})
			if err != nil {
				return nil, err
			}
			ri := db.RecoveryInfo()
			log.Printf("recovered %s: checkpoint lsn %d, %d records replayed", dir, ri.CheckpointLSN, ri.Replayed)
			return db, nil
		}
		log.Printf("seeding fresh store in %s (%d floors, %d objects)", dir, floors, objects)
	}
	b, err := indoorq.GenerateMall(indoorq.MallSpec{Floors: floors})
	if err != nil {
		return nil, err
	}
	objs := indoorq.GenerateObjects(b, indoorq.ObjectSpec{N: objects, Radius: 6, Instances: 5, Seed: 1})
	db, _, err := indoorq.Open(b, objs, indoorq.Options{})
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if err := db.Persist(dir, indoorq.DurabilityOptions{}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// hasStore reports whether dir already holds a checkpoint (the marker
// OpenDir needs).
func hasStore(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if name := e.Name(); len(name) > 5 && name[len(name)-5:] == ".ckpt" {
			return true
		}
	}
	return false
}
