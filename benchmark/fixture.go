package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	indoorq "repro"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/wire"
)

// The benchmark city. ISSUE 11 asked for bench.CityDefault (4×6 buildings,
// 100K objects); the driver's total-time cap leaves about half a minute per
// run including three set-ups, and at that scale one set-up alone takes ten
// seconds, so the city is shrunk to the scale of bench.CitySmoke (2×3
// buildings, 20K objects) rather than dropping a workload. Every building
// has the same number of floors: with CitySmoke's seeded 3–6 floors the
// partition count, and with it every O(building) cost, moved by a quarter
// from seed to seed, which is input variance the metrics would report as
// noise. Radius and instance count are CityDefault's.
const (
	cityRows, cityCols = 2, 3
	cityFloors         = 4
	cityObjects        = 20_000
	cityRadius         = 8.0
	cityInstances      = 20
)

// Input sizes. Everything below is generated before any timer starts.
const (
	batchMoves    = 32   // moves per update batch (bench.CityChurnBatchSize)
	batchPool     = 256  // distinct update batches a writer cycles through
	moveInstances = 10   // instances per re-reported object (NewCityChurn's)
	queryPool     = 4096 // distinct query points the readers cycle through
	verifyQueries = 50   // per query kind, in the correctness gate
	oracleQueries = 3    // per query kind, against the brute-force oracle
	maxSubs       = 1000 // the largest standing-query population (write_heavy)
	rangeRadius   = 50.0 // iRQ radius, metres
	knnK          = 10
	subRadius     = 30.0
)

// splitTarget is a rectangular room a topology stream may split in two.
type splitTarget struct {
	pid    indoor.PartitionID
	alongX bool
	at     float64
}

// fixture is everything a run needs that depends only on the seed: the
// persisted city and every input stream.
type fixture struct {
	storeDir string // checkpoint + empty WAL, copied per set-up
	ckpt     string // the checkpoint file inside storeDir
	buildS   float64
	parts    int

	queries  []indoor.Position
	verifyQ  []indoor.Position
	batches  [][]index.ObjectUpdate
	wireUps  [][]wire.UpdateItem
	doors    []indoor.DoorID
	rooms    []splitTarget
	subSpecs []wire.SubscribeRequest

	baseDigest []byte
}

// buildFixture generates the city and its input streams from the seed,
// builds the index through the facade and persists it once under dir.
func buildFixture(seed int64, dir string) (*fixture, error) {
	t0 := time.Now()
	layout, err := gen.City(gen.CitySpec{
		Rows: cityRows, Cols: cityCols, FloorsMin: cityFloors, FloorsMax: cityFloors, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	b := layout.B
	objs := gen.Objects(b, gen.ObjectSpec{N: cityObjects, Radius: cityRadius, Instances: cityInstances, Seed: seed + 1})
	db, _, err := indoorq.Open(b, objs, indoorq.Options{})
	if err != nil {
		return nil, err
	}
	fx := &fixture{storeDir: filepath.Join(dir, "fixture"), parts: b.NumPartitions()}
	if err := db.Persist(fx.storeDir, indoorq.DurabilityOptions{}); err != nil {
		return nil, err
	}
	fx.buildS = time.Since(t0).Seconds()

	fx.queries = gen.QueryPoints(b, queryPool, seed+2)
	fx.verifyQ = gen.QueryPoints(b, 2*verifyQueries, seed+3)
	for i, q := range gen.QueryPoints(b, maxSubs, seed+4) {
		req := wire.SubscribeRequest{Q: wire.PositionOf(q), R: subRadius}
		if i%8 == 7 { // 7:1 range:kNN, the monitoring-heavy mix of bench.NewCityChurn
			req = wire.SubscribeRequest{Q: wire.PositionOf(q), K: knnK}
		}
		fx.subSpecs = append(fx.subSpecs, req)
	}
	if err := fx.genBatches(db, objs, rand.New(rand.NewSource(seed+5))); err != nil {
		return nil, err
	}
	fx.genTopology(db, rand.New(rand.NewSource(seed+6)))

	h := sha256.New()
	hashBuilding(h, b)
	hashObjects(h, objs)
	fx.hashInputs(h)
	fx.baseDigest = h.Sum(nil)

	// The daemons own the store from here on; the fixture DB is done.
	if err := db.Close(); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(fx.storeDir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			fx.ckpt = filepath.Join(fx.storeDir, e.Name())
		}
	}
	if fx.ckpt == "" {
		return nil, fmt.Errorf("no checkpoint in %s", fx.storeDir)
	}
	return fx, nil
}

// genBatches draws the stationary-jitter move batches (the shape of
// bench.NewCityChurn): each batch re-reports distinct objects within 15 m
// of where the fixture put them, so the stream is statistically the same
// from any starting batch and can be cycled.
func (fx *fixture) genBatches(db *indoorq.DB, objs []*object.Object, rng *rand.Rand) error {
	for len(fx.batches) < batchPool {
		batch := make([]index.ObjectUpdate, 0, batchMoves)
		items := make([]wire.UpdateItem, 0, batchMoves)
		seen := make(map[object.ID]bool, batchMoves)
		for len(batch) < batchMoves {
			o := objs[rng.Intn(len(objs))]
			if seen[o.ID] {
				continue
			}
			seen[o.ID] = true
			c := o.Center
			next := indoor.Pos(c.Pt.X+rng.Float64()*30-15, c.Pt.Y+rng.Float64()*30-15, c.Floor)
			if db.LocatePartition(next) < 0 {
				next = c
			}
			up := index.ObjectUpdate{Op: index.UpdateMove, Object: object.SampleGaussian(rng, o.ID, next, cityRadius, moveInstances)}
			item, err := wire.UpdateItemOf(up)
			if err != nil {
				return err
			}
			batch, items = append(batch, up), append(items, item)
		}
		fx.batches, fx.wireUps = append(fx.batches, batch), append(fx.wireUps, items)
	}
	return nil
}

// genTopology picks the doors a topology stream toggles and the rooms it
// splits and re-merges, in a seeded order. Closing a room's door, or
// splitting a room, cuts the room (or one half of it) off for a moment. A
// query issued from INSIDE a cut-off room finds its neighbours at infinite
// distance, and the daemon cannot encode +Inf as JSON: it answers 200 with
// an empty body. That is a defect of the server, not a workload, so the
// streams only touch rooms that hold no query, verification or standing
// query point.
func (fx *fixture) genTopology(db *indoorq.DB, rng *rand.Rand) {
	b := db.Building()
	occupied := map[indoor.PartitionID]bool{}
	for _, qs := range [][]indoor.Position{fx.queries, fx.verifyQ} {
		for _, q := range qs {
			occupied[db.LocatePartition(q)] = true
		}
	}
	for _, s := range fx.subSpecs {
		occupied[db.LocatePartition(s.Q.Domain())] = true
	}
	isRoom := func(id indoor.PartitionID) bool {
		p := b.Partition(id)
		return p != nil && p.Kind == indoor.Room
	}
	for _, d := range b.Doors() {
		// A door of at least one room, all of whose rooms are unoccupied.
		rooms, quiet := 0, 0
		for _, id := range []indoor.PartitionID{d.P1, d.P2} {
			if isRoom(id) {
				rooms++
				if !occupied[id] {
					quiet++
				}
			}
		}
		if rooms > 0 && quiet == rooms {
			fx.doors = append(fx.doors, d.ID)
		}
	}
	rng.Shuffle(len(fx.doors), func(i, j int) { fx.doors[i], fx.doors[j] = fx.doors[j], fx.doors[i] })
	for _, p := range b.Partitions() {
		if !isRoom(p.ID) || occupied[p.ID] || !p.Shape.IsConvex() {
			continue
		}
		r := p.Bounds()
		t := splitTarget{pid: p.ID, alongX: r.Width() >= r.Height(), at: (r.MinY + r.MaxY) / 2}
		if t.alongX {
			t.at = (r.MinX + r.MaxX) / 2
		}
		fx.rooms = append(fx.rooms, t)
	}
	rng.Shuffle(len(fx.rooms), func(i, j int) { fx.rooms[i], fx.rooms[j] = fx.rooms[j], fx.rooms[i] })
}

// digest names the exact inputs of one workload. It changes when the
// seed, internal/gen, or the workload's own constants change, so a later
// edit that makes the inputs easier shows as a new digest and not as a
// speed-up.
func (fx *fixture) digest(wl workload) string {
	h := sha256.New()
	h.Write(fx.baseDigest)
	fmt.Fprintf(h, "%+v", wl.spec())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func putF(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func putI(h hash.Hash, vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

func hashBuilding(h hash.Hash, b *indoor.Building) {
	for _, p := range b.Partitions() {
		putI(h, int64(p.ID), int64(p.Kind), int64(p.Floor))
		for _, v := range p.Shape.V {
			putF(h, v.X, v.Y)
		}
	}
	for _, d := range b.Doors() {
		putI(h, int64(d.ID), int64(d.Floor), int64(d.P1), int64(d.P2), int64(d.From), int64(d.To))
		putF(h, d.Pos.X, d.Pos.Y)
	}
}

func hashObject(h hash.Hash, o *object.Object) {
	putI(h, int64(o.ID), int64(o.Center.Floor))
	putF(h, o.Center.Pt.X, o.Center.Pt.Y, o.Radius)
	for _, in := range o.Instances {
		putI(h, int64(in.Pos.Floor))
		putF(h, in.Pos.Pt.X, in.Pos.Pt.Y, in.P)
	}
}

func hashObjects(h hash.Hash, objs []*object.Object) {
	for _, o := range objs {
		hashObject(h, o)
	}
}

func (fx *fixture) hashInputs(h hash.Hash) {
	for _, qs := range [][]indoor.Position{fx.queries, fx.verifyQ} {
		for _, q := range qs {
			putI(h, int64(q.Floor))
			putF(h, q.Pt.X, q.Pt.Y)
		}
	}
	for _, batch := range fx.batches {
		for _, up := range batch {
			hashObject(h, up.Object)
		}
	}
	for _, d := range fx.doors {
		putI(h, int64(d))
	}
	for _, r := range fx.rooms {
		putI(h, int64(r.pid))
		putF(h, r.at)
	}
	for _, s := range fx.subSpecs {
		putI(h, int64(s.Q.Floor), int64(s.K))
		putF(h, s.Q.X, s.Q.Y, s.R)
	}
}
