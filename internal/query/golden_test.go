package query

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// goldenFile pins the answers and the pruning/refinement counters of a
// fixed query set. A change to any phase that is meant to be a pure
// refactoring must leave every line byte-identical.
const goldenFile = "testdata/query_answers.golden"

// goldenAnswers evaluates the fixed query set — iRQ at r ∈ {30, 100} and
// ikNN at k ∈ {10, 100} over 40 query points on 2- and 3-floor malls,
// under the default options and both ablations — and renders one line per
// query: a digest of the result ids and exact distance bits, plus the
// Stats counters. It also returns the FullFallbacks total per query kind.
func goldenAnswers(t *testing.T) (lines []string, full map[string]int) {
	t.Helper()
	full = make(map[string]int)
	optSets := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"nopruning", Options{DisablePruning: true}},
		{"noskeleton", Options{DisableSkeleton: true}},
	}
	for _, floors := range []int{2, 3} {
		_, idx, qs := goldenMall(t, floors)
		for _, o := range optSets {
			p := New(idx, o.opts)
			for qi, q := range qs {
				for _, run := range []struct {
					kind  string
					param float64
				}{{"irq", 30}, {"irq", 100}, {"iknn", 10}, {"iknn", 100}} {
					var res []Result
					var st *Stats
					var err error
					if run.kind == "irq" {
						res, st, err = p.RangeQuery(q, run.param)
					} else {
						res, st, err = p.KNNQuery(q, int(run.param))
					}
					if err != nil {
						t.Fatalf("floors=%d %s q%d %s %g: %v", floors, o.name, qi, run.kind, run.param, err)
					}
					h := fnv.New64a()
					for _, r := range res {
						fmt.Fprintf(h, "%d:%016x;", r.ID, math.Float64bits(r.Distance))
					}
					lines = append(lines, fmt.Sprintf(
						"floors=%d opts=%s q=%d %s=%g n=%d digest=%016x units=%d cand=%d acc=%d rej=%d refined=%d full=%d",
						floors, o.name, qi, run.kind, run.param, len(res), h.Sum64(),
						st.UnitsRetrieved, st.Candidates, st.AcceptedBounds, st.RejectedBounds,
						st.Refined, st.FullFallbacks))
					full[run.kind] += st.FullFallbacks
				}
			}
		}
	}
	return lines, full
}

// goldenMall builds the golden query set's fixture: a mall of the given
// floors holding 1,000 objects, indexed, and its 40 query points.
func goldenMall(t *testing.T, floors int) ([]*object.Object, *index.Index, []indoor.Position) {
	t.Helper()
	b, err := gen.Mall(gen.MallSpec{Floors: floors})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 1000, Radius: 8, Instances: 20, Seed: 7})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return objs, idx, gen.QueryPoints(b, 40, 11)
}

// TestQueryAnswersGolden compares the fixed query set against the pinned
// golden file and names the first query whose answer or counters differ.
func TestQueryAnswersGolden(t *testing.T) {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got, full := goldenAnswers(t)
	for i := range got {
		if i >= len(want) {
			t.Fatalf("query %d not in golden file:\n got %s", i, got[i])
		}
		if got[i] != want[i] {
			t.Fatalf("query %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d queries, evaluated %d", len(want), len(got))
	}
	// The set must exercise both refinement rungs, the full one
	// included, for both query kinds.
	for _, kind := range []string{"irq", "iknn"} {
		if full[kind] == 0 {
			t.Errorf("%s: no query reached the full-engine rung", kind)
		}
	}
}
