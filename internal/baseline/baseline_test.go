package baseline

import (
	"math"
	"testing"

	"repro/internal/distance"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
)

func smallMallIndex(t *testing.T) (*index.Index, *indoor.Building) {
	t.Helper()
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 80, Radius: 5, Instances: 10, Seed: 3})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx, b
}

// The precomputed door-to-door matrix must agree with the on-the-fly
// engine: for sampled doors, matrix distance == Dijkstra distance.
func TestPrecomputeMatchesEngine(t *testing.T) {
	idx, b := smallMallIndex(t)
	pre := Precompute(idx)
	if pre.NDoors == 0 {
		t.Fatal("no doors precomputed")
	}
	if pre.Elapsed <= 0 {
		t.Error("elapsed time must be recorded")
	}
	// Sanity: matrix is non-negative with a zero diagonal and satisfies
	// the triangle inequality on a sample.
	n := pre.NDoors
	for i := 0; i < n; i += 7 {
		if pre.D[i][i] != 0 {
			t.Fatalf("D[%d][%d] = %g", i, i, pre.D[i][i])
		}
		for j := 0; j < n; j += 11 {
			if pre.D[i][j] < 0 {
				t.Fatalf("negative distance D[%d][%d]", i, j)
			}
			for k := 0; k < n; k += 13 {
				if !math.IsInf(pre.D[i][k], 1) && !math.IsInf(pre.D[k][j], 1) &&
					pre.D[i][j] > pre.D[i][k]+pre.D[k][j]+1e-6 {
					t.Fatalf("triangle violation (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	_ = b
}

func TestEstimatePrecomputeTime(t *testing.T) {
	idx, _ := smallMallIndex(t)
	per, total, doors := EstimatePrecomputeTime(idx, 10)
	if doors == 0 || per <= 0 || total <= 0 {
		t.Fatalf("estimate: per=%v total=%v doors=%d", per, total, doors)
	}
	if total < per {
		t.Error("total must be at least one per-source cost")
	}
}

func TestOracleConsistency(t *testing.T) {
	idx, b := smallMallIndex(t)
	or := NewOracle(idx)
	q := gen.QueryPoints(b, 1, 5)[0]
	all, err := or.AllDistances(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != idx.Current().Objects().Len() {
		t.Fatalf("oracle covered %d of %d objects", len(all), idx.Current().Objects().Len())
	}
	for i := 1; i < len(all); i++ {
		if all[i].D < all[i-1].D {
			t.Fatal("oracle distances not sorted")
		}
	}
	// Range/KNN derive from AllDistances.
	r := all[len(all)/2].D
	ids, err := or.Range(q, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, od := range all {
		in := od.D <= r
		found := false
		for _, id := range ids {
			if id == od.ID {
				found = true
				break
			}
		}
		if in != found {
			t.Fatalf("range membership mismatch for %d", od.ID)
		}
	}
	top, err := or.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("kNN returned %d", len(top))
	}
	for i := range top {
		if top[i] != all[i] {
			t.Fatal("kNN must be the prefix of AllDistances")
		}
	}
	// Oracle distances agree with a directly-built full engine.
	eng, err := distance.NewFull(idx.Current(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, od := range all[:10] {
		d, _ := eng.ExactDist(idx.Current().Objects().Get(od.ID))
		if math.Abs(d-od.D) > 1e-9 {
			t.Fatalf("oracle %g != engine %g", od.D, d)
		}
	}
	if _, err := or.KNN(indoor.Pos(-1, -1, 0), 3); err == nil {
		t.Error("oracle outside the building must error")
	}
}
