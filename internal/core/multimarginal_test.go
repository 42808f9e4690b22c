package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"waitfreebn/internal/dataset"
)

func TestMarginalizeManyMatchesSingles(t *testing.T) {
	d := uniformData(t, 10000, 7, 3, 80)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	varsets := [][]int{{0}, {1, 3}, {6, 2, 4}, {5}, {0, 6}}
	many := pt.MarginalizeMany(varsets, 4)
	if len(many) != len(varsets) {
		t.Fatalf("got %d marginals", len(many))
	}
	for k, vars := range varsets {
		single := pt.Marginalize(vars, 4)
		if len(many[k].Counts) != len(single.Counts) {
			t.Fatalf("set %d: cell counts differ", k)
		}
		for c := range single.Counts {
			if many[k].Counts[c] != single.Counts[c] {
				t.Fatalf("set %d cell %d: %d != %d", k, c, many[k].Counts[c], single.Counts[c])
			}
		}
		if many[k].M != single.M {
			t.Fatalf("set %d: M %d != %d", k, many[k].M, single.M)
		}
	}
}

// TestMarginalizeManyOverlappingSets: a fused batch whose subsets share
// variables (each decoded once per key) matches one Algorithm 3 scan per
// subset, on live partitions and on the frozen snapshot, where sorted
// blocks pin high-stride variables constant and some subsets fall entirely
// into one cell per block.
func TestMarginalizeManyOverlappingSets(t *testing.T) {
	ctx := context.Background()
	for _, card := range [][]int{{2, 3, 2, 4, 3, 2, 5}, {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 2, 2}} {
		n := len(card)
		d := dataset.New(30000, card)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < d.NumSamples(); i++ {
			for j := 0; j < n; j++ {
				d.Set(i, j, uint8(rng.Intn(card[j])))
			}
		}
		pt, _, err := Build(d, Options{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		varsets := [][]int{{n - 1}, {n - 2, n - 1}, {0, n - 1, 1}, {n - 1, n - 2}, {2, 0}, {n - 3, 1, n - 1, 0}}
		for k := 0; k < 12; k++ {
			varsets = append(varsets, rng.Perm(n)[:1+rng.Intn(4)])
		}
		for _, frozen := range []bool{false, true} {
			if frozen {
				if _, err := pt.FreezeCtx(ctx, 2); err != nil {
					t.Fatal(err)
				}
			}
			many, err := pt.MarginalizeManyCtx(ctx, varsets, 2)
			if err != nil {
				t.Fatal(err)
			}
			for k, vars := range varsets {
				single, err := pt.MarginalizeCtx(ctx, vars, 2)
				if err != nil {
					t.Fatal(err)
				}
				marginalsEqual(t, many[k], single, fmt.Sprintf("n=%d frozen=%v %v", n, frozen, vars))
			}
		}
	}
}

func TestMarginalizeManyEmpty(t *testing.T) {
	d := uniformData(t, 100, 3, 2, 81)
	pt, _, _ := Build(d, Options{P: 2})
	if got := pt.MarginalizeMany(nil, 2); got != nil {
		t.Fatalf("expected nil for empty request, got %v", got)
	}
}

func TestMarginalizeManyIndependentOfWorkers(t *testing.T) {
	d := uniformData(t, 5000, 6, 2, 82)
	pt, _, err := Build(d, Options{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	varsets := [][]int{{0, 1}, {2, 3}, {4, 5}}
	ref := pt.MarginalizeMany(varsets, 1)
	for _, p := range []int{2, 4, 16} {
		got := pt.MarginalizeMany(varsets, p)
		for k := range varsets {
			for c := range ref[k].Counts {
				if got[k].Counts[c] != ref[k].Counts[c] {
					t.Fatalf("p=%d set %d cell %d differs", p, k, c)
				}
			}
		}
	}
}

func TestMarginalizeManyDuplicateSubsets(t *testing.T) {
	d := uniformData(t, 3000, 4, 2, 83)
	pt, _, _ := Build(d, Options{P: 2})
	many := pt.MarginalizeMany([][]int{{1, 2}, {1, 2}}, 2)
	for c := range many[0].Counts {
		if many[0].Counts[c] != many[1].Counts[c] {
			t.Fatal("duplicate subsets produced different marginals")
		}
	}
}

func BenchmarkMarginalizeManyVsSingles(b *testing.B) {
	d := dataNoT(200000, 12, 2)
	pt, _, err := Build(d, Options{P: 4})
	if err != nil {
		b.Fatal(err)
	}
	varsets := make([][]int, 0, 11)
	for j := 1; j < 12; j++ {
		varsets = append(varsets, []int{0, j})
	}
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt.MarginalizeMany(varsets, 4)
		}
	})
	b.Run("singles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, vs := range varsets {
				pt.Marginalize(vs, 4)
			}
		}
	})
}

// dataNoT builds a dataset without a testing.TB, for benchmarks.
func dataNoT(m, n, r int) *dataset.Dataset {
	d := dataset.NewUniformCard(m, n, r)
	d.UniformIndependent(1, 4)
	return d
}
