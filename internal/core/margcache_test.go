package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"waitfreebn/internal/dataset"
	"waitfreebn/internal/encoding"
	"waitfreebn/internal/obs"
)

func marginalsEqual(t *testing.T, a, b *Marginal, label string) {
	t.Helper()
	if len(a.Vars) != len(b.Vars) {
		t.Fatalf("%s: arity %d != %d", label, len(a.Vars), len(b.Vars))
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] || a.Card[i] != b.Card[i] {
			t.Fatalf("%s: axis %d differs: %v/%v vs %v/%v", label, i, a.Vars, a.Card, b.Vars, b.Card)
		}
	}
	if a.M != b.M || len(a.Counts) != len(b.Counts) {
		t.Fatalf("%s: shape/M differs", label)
	}
	for c := range a.Counts {
		if a.Counts[c] != b.Counts[c] {
			t.Fatalf("%s: cell %d: %d != %d", label, c, a.Counts[c], b.Counts[c])
		}
	}
}

func TestProjectPermutationRoundTrip(t *testing.T) {
	d := uniformData(t, 8000, 5, 3, 90)
	pt, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	orders := [][]int{{2, 0, 4}, {4, 2, 0}, {0, 2, 4}, {0, 4, 2}}
	for _, order := range orders {
		want := pt.Marginalize(order, 2)
		base := pt.Marginalize([]int{0, 2, 4}, 2)
		got := base.Project(order)
		marginalsEqual(t, got, want, "permutation")
	}
	// Identity projection returns the receiver untouched.
	base := pt.Marginalize([]int{1, 3}, 2)
	if base.Project([]int{1, 3}) != base {
		t.Error("identity Project did not return the receiver")
	}
}

func TestProjectPanicsOnForeignVars(t *testing.T) {
	mg := &Marginal{Vars: []int{0, 1}, Card: []int{2, 2}, Counts: make([]uint64, 4)}
	for name, vars := range map[string][]int{
		"foreign var":    {0, 5},
		"duplicate var":  {1, 1},
		"too many axes":  {0, 1, 0},
		"only a foreign": {7},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			mg.Project(vars)
		}()
	}
}

// TestProjectMatchesScan: projecting a marginal onto a random subset of
// its variables, in a random order, is bit-identical to scanning the table
// for that subset directly — on the live partitions and on the frozen
// snapshot, with mixed cardinalities so every stride differs.
func TestProjectMatchesScan(t *testing.T) {
	d := dataset.New(20000, []int{2, 3, 2, 4, 3, 2, 5})
	rng := rand.New(rand.NewSource(95))
	for i := 0; i < d.NumSamples(); i++ {
		for j := 0; j < d.NumVars(); j++ {
			d.Set(i, j, uint8(rng.Intn(d.Cardinality(j))))
		}
	}
	pt, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, frozen := range []bool{false, true} {
		if frozen {
			if _, err := pt.FreezeCtx(ctx, 2); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 40; trial++ {
			sup := rng.Perm(d.NumVars())[:2+rng.Intn(d.NumVars()-1)]
			var subs [][]int
			for k := 0; k < 4; k++ {
				sub := append([]int(nil), sup...)
				rng.Shuffle(len(sub), func(a, b int) { sub[a], sub[b] = sub[b], sub[a] })
				subs = append(subs, sub[:1+rng.Intn(len(sub))])
			}
			want, err := pt.MarginalizeManyCtx(ctx, subs, 2)
			if err != nil {
				t.Fatal(err)
			}
			base, err := pt.MarginalizeCtx(ctx, sup, 2)
			if err != nil {
				t.Fatal(err)
			}
			for k, sub := range subs {
				marginalsEqual(t, base.Project(sub), want[k], fmt.Sprintf("frozen=%v %v→%v", frozen, sup, sub))
			}
		}
	}
}

// TestMarginalCacheSupersetHits: a varset with no entry of its own is
// served by projecting the smallest cached superset of the same epoch,
// the projection is cached under its own key, and a superset stamped
// with an older epoch is never projected.
func TestMarginalCacheSupersetHits(t *testing.T) {
	codec, err := encoding.NewUniformCodec(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	space := codec.KeySpace()
	b := NewBuilder(codec, 0, Options{P: 2, NumPartitions: 8, Partition: PartitionRange})
	ctx := context.Background()
	if err := b.AddKeysCtx(ctx, refreezeKeys(20000, space, 43)); err != nil {
		t.Fatal(err)
	}
	pt1, _, err := b.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMarginalCache(1<<16, nil)
	big, small := []int{0, 1, 2, 3, 4}, []int{1, 2, 3}
	if _, err := pt1.MarginalizeManyCachedCtx(ctx, [][]int{big, small}, 2, cache); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("after cold pass: %v", st)
	}

	// {3, 1} is covered by both entries; the 27-cell one must be projected,
	// not the 243-cell one. Poison the big entry's counts to tell them apart.
	bigEnt := cache.entries[varsetKey(big)].mg
	saved := append([]uint64(nil), bigEnt.Counts...)
	for c := range bigEnt.Counts {
		bigEnt.Counts[c] = 1 << 40
	}
	got, err := pt1.MarginalizeManyCachedCtx(ctx, [][]int{{3, 1}}, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	copy(bigEnt.Counts, saved)
	want, err := pt1.MarginalizeManyCtx(ctx, [][]int{{3, 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	marginalsEqual(t, got[0], want[0], "smallest superset")
	st := cache.Stats()
	if st.Hits != 1 || st.SupersetHits != 1 || st.Misses != 2 || st.Entries != 3 {
		t.Fatalf("after superset hit: %v", st)
	}
	// The projection now has an entry of its own: an exact hit.
	if _, err := pt1.MarginalizeManyCachedCtx(ctx, [][]int{{1, 3}}, 2, cache); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 2 || st.SupersetHits != 1 {
		t.Fatalf("projection not cached under its own key: %v", st)
	}

	// Next epoch: every cached entry is stale, so a covered varset misses
	// and is scanned from the new table.
	if err := b.AddKeysCtx(ctx, localizedKeys(1000, space, 0.08, 0, 44)); err != nil {
		t.Fatal(err)
	}
	pt2, _, err := b.SnapshotCtx(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pt2.FreezeEpoch() == pt1.FreezeEpoch() {
		t.Fatal("snapshots share a freeze epoch")
	}
	got, err = pt2.MarginalizeManyCachedCtx(ctx, [][]int{{4, 0}}, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	want, err = pt2.MarginalizeManyCtx(ctx, [][]int{{4, 0}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	marginalsEqual(t, got[0], want[0], "stale superset")
	if st := cache.Stats(); st.SupersetHits != 1 || st.Misses != 3 {
		t.Fatalf("stale-epoch superset was projected: %v", st)
	}
}

func TestMarginalizeManyCachedMatchesUncached(t *testing.T) {
	d := uniformData(t, 20000, 8, 3, 91)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Mixed orders, duplicates under different orders, and repeats.
	varsets := [][]int{
		{1, 3, 5}, {5, 3, 1}, {0, 7}, {7, 0}, {2}, {1, 3, 5}, {4, 2, 6},
	}
	want := pt.MarginalizeMany(varsets, 4)
	for _, cache := range []*MarginalCache{nil, NewMarginalCache(1<<16, nil)} {
		got := pt.MarginalizeManyCached(varsets, 4, cache)
		for k := range varsets {
			marginalsEqual(t, got[k], want[k], "cached vs direct")
		}
		// A second pass must serve everything from the cache and still agree.
		got2 := pt.MarginalizeManyCached(varsets, 4, cache)
		for k := range varsets {
			marginalsEqual(t, got2[k], want[k], "second pass")
		}
	}
}

func TestMarginalCacheHitMissCounters(t *testing.T) {
	d := uniformData(t, 5000, 6, 2, 92)
	pt, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cache := NewMarginalCache(1<<16, reg)
	pt.MarginalizeManyCached([][]int{{0, 1}, {2, 3}}, 2, cache)
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after cold pass: %+v", st)
	}
	// {1, 0} is the same canonical set as {0, 1}: a hit in another order.
	pt.MarginalizeManyCached([][]int{{1, 0}, {4, 5}}, 2, cache)
	st = cache.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 3 {
		t.Fatalf("after warm pass: %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Errorf("hit rate %v out of range", st.HitRate())
	}
	if reg.Counter(metricCacheHits).Value() != 1 || reg.Counter(metricCacheMisses).Value() != 3 {
		t.Errorf("obs counters: hits=%d misses=%d",
			reg.Counter(metricCacheHits).Value(), reg.Counter(metricCacheMisses).Value())
	}
	if st.String() == "" {
		t.Error("empty Stats string")
	}
}

func TestMarginalCacheEvictsWithinBudget(t *testing.T) {
	d := uniformData(t, 5000, 10, 3, 93)
	pt, _, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Budget of 30 cells holds at most three 9-cell pair marginals.
	cache := NewMarginalCache(30, nil)
	for i := 0; i < 9; i++ {
		pt.MarginalizeManyCached([][]int{{i, i + 1}}, 2, cache)
	}
	st := cache.Stats()
	if st.Cells > 30 {
		t.Errorf("cache over budget: %+v", st)
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions despite pressure: %+v", st)
	}
	// An entry bigger than the whole budget is computed but never cached.
	before := cache.Stats().Entries
	pt.MarginalizeManyCached([][]int{{0, 1, 2, 3}}, 2, cache) // 81 cells > 30
	if got := cache.Stats(); got.Cells > 30 || got.Entries > before+0 {
		t.Errorf("oversized entry was cached: %+v", got)
	}
}

var errCacheMismatch = errors.New("cached marginal differs from direct computation")

func TestMarginalizeManyCachedConcurrent(t *testing.T) {
	d := uniformData(t, 10000, 6, 2, 94)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMarginalCache(1<<12, nil)
	want := pt.Marginalize([]int{1, 4}, 1)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				vs := [][]int{{1, 4}, {4, 1}, {g % 6, (g + 1) % 6, (g + 2) % 6}}
				if vs[2][0] == vs[2][1] || vs[2][1] == vs[2][2] || vs[2][0] == vs[2][2] {
					vs = vs[:2]
				}
				ms, err := pt.MarginalizeManyCachedCtx(context.Background(), vs, 2, cache)
				if err != nil {
					done <- err
					return
				}
				for c := range want.Counts {
					if ms[0].Counts[c] != want.Counts[c] {
						done <- errCacheMismatch
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
