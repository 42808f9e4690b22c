package core

import (
	"context"
	"fmt"
	"testing"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/dataset"
)

// BenchmarkFreeze times the cold freeze alone — drain every partition and
// sort it into the columnar snapshot — on two tables, each built once with
// P partitions and frozen by P workers:
//
//   - uniform4m: 4M rows of 30 uniform binary variables (the init-rows4m
//     input), ~4M distinct keys spread over a 2^30 key space;
//   - bn200k: 200k rows sampled from the 40-variable random network of
//     learn-dag40, whose keys cluster in a few dense regions.
//
// Run it with -count for a variance estimate:
//
//	go test ./internal/core -run '^$' -bench Freeze -count 6
func BenchmarkFreeze(b *testing.B) {
	inputs := []struct {
		name string
		data func() *dataset.Dataset
	}{
		{"uniform4m", func() *dataset.Dataset {
			d := dataset.NewUniformCard(4_000_000, 30, 2)
			d.UniformIndependent(1, 0)
			return d
		}},
		{"bn200k", func() *dataset.Dataset {
			d, err := bn.RandomDAG(40, 2, 0.15, 3, 0.6, 42).Sample(200_000, 43, 0)
			if err != nil {
				b.Fatal(err)
			}
			return d
		}},
	}
	ctx := context.Background()
	for _, in := range inputs {
		data := in.data()
		for _, p := range []int{1, 2} {
			pt, _, err := BuildCtx(ctx, data, Options{P: p})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/P=%d", in.name, p), func(b *testing.B) {
				b.ReportMetric(float64(pt.Len()), "entries")
				for i := 0; i < b.N; i++ {
					pt.frozen.Store(nil)
					if _, err := pt.FreezeCtx(ctx, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
