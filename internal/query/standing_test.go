package query

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// A standing query is the one-shot evaluation with its phase kept, so on
// the golden query set's malls every range and kNN subscription must
// start with the one-shot answer and keep it through batches of moves —
// kNN distances bit for bit wherever the one-shot refined them. Two and
// three floors send cross-floor candidates up the whole refinement
// ladder, which the one-floor oracle workload never reaches.
func TestStandingMatchesOneShot(t *testing.T) {
	type sub struct {
		id   int
		kind SubKind
		q    indoor.Position
		r    float64
		k    int
	}
	fullRung, routed := 0, uint64(0)
	for _, floors := range []int{2, 3} {
		objs, idx, qs := goldenMall(t, floors)
		p := New(idx, Options{})
		e := NewSubscriptions(idx)
		var subs []sub
		for _, q := range qs {
			for _, r := range []float64{30, 100} {
				id, _, err := e.SubscribeRange(q, r)
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, sub{id: id, kind: SubRange, q: q, r: r})
			}
			for _, k := range []int{10, 100} {
				id, _, err := e.SubscribeKNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, sub{id: id, kind: SubKNN, q: q, k: k})
			}
		}

		check := func(batch int) {
			t.Helper()
			snap := idx.Current()
			for _, s := range subs {
				var want []Result
				var err error
				if s.kind == SubRange {
					want, _, err = p.RangeQueryOn(snap, s.q, s.r)
				} else {
					want, _, err = p.KNNQueryOn(snap, s.q, s.k)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := e.Results(s.id); !sameIDs(got, idsOf(want)) {
					t.Fatalf("floors=%d batch %d: sub %d (%v q=%v r=%g k=%d):\n  standing %v\n  one-shot %v",
						floors, batch, s.id, s.kind, s.q, s.r, s.k, got, idsOf(want))
				}
				if s.kind != SubKNN {
					continue
				}
				dist := make(map[object.ID]float64)
				for _, res := range e.TopK(s.id) {
					dist[res.ID] = res.Distance
				}
				for _, w := range want {
					if !math.IsNaN(w.Distance) && math.Float64bits(dist[w.ID]) != math.Float64bits(w.Distance) {
						t.Fatalf("floors=%d batch %d: sub %d object %d: standing distance %v, one-shot %v",
							floors, batch, s.id, w.ID, dist[w.ID], w.Distance)
					}
				}
			}
		}
		check(-1)

		rng := rand.New(rand.NewSource(int64(40 + floors)))
		live := append([]*object.Object(nil), objs...)
		for batch := 0; batch < 5; batch++ {
			ups := make([]index.ObjectUpdate, 0, 64)
			for _, i := range rng.Perm(len(live))[:64] {
				o := live[i]
				c := o.Center
				next := indoor.Pos(c.Pt.X+rng.Float64()*60-30, c.Pt.Y+rng.Float64()*60-30, c.Floor)
				if idx.Current().LocatePartition(next) < 0 {
					next = c
				}
				live[i] = object.SampleGaussian(rng, o.ID, next, o.Radius, len(o.Instances))
				ups = append(ups, index.ObjectUpdate{Op: index.UpdateMove, Object: live[i]})
			}
			if _, err := e.ApplyObjectUpdates(ups); err != nil {
				t.Fatalf("floors=%d batch %d: %v", floors, batch, err)
			}
			check(batch)
		}
		st := e.Stats()
		if st.RoutedPairs == 0 {
			t.Fatalf("floors=%d: the moves routed no pairs: %+v", floors, st)
		}
		routed += st.RoutedPairs
		for _, s := range e.standing {
			if s.st.FullFallbacks > 0 {
				fullRung++
			}
		}
	}
	if fullRung == 0 {
		t.Fatal("no subscription reached the full rung")
	}
	t.Logf("%d subscriptions reached the full rung; %d routed pairs", fullRung, routed)
}
