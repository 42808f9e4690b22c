package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"waitfreebn/internal/hashtable"
)

type kv struct{ key, count uint64 }

// sortKVOracle is the reference ordering: a comparison sort of the pairs
// by key, ties broken by count (sortKV leaves equal keys in unspecified
// order, so the check compares equal-key runs as multisets).
func sortKVOracle(keys, counts []uint64) []kv {
	out := make([]kv, len(keys))
	for i := range keys {
		out[i] = kv{keys[i], counts[i]}
	}
	slices.SortFunc(out, func(a, b kv) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.count, b.count))
	})
	return out
}

// checkSortKV sorts a copy of keys/counts with sortKV and compares it with
// the oracle: keys must match position by position, and counts must be the
// same multiset within every run of equal keys.
func checkSortKV(t *testing.T, keys, counts []uint64) {
	t.Helper()
	want := sortKVOracle(keys, counts)
	gk, gc := slices.Clone(keys), slices.Clone(counts)
	sortKV(gk, gc)
	got := make([]kv, len(gk))
	for i := range gk {
		got[i] = kv{gk[i], gc[i]}
	}
	for lo := 0; lo < len(got); {
		hi := lo + 1
		for hi < len(got) && got[hi].key == got[lo].key {
			hi++
		}
		slices.SortFunc(got[lo:hi], func(a, b kv) int { return cmp.Compare(a.count, b.count) })
		lo = hi
	}
	if !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: entry %d = %+v, want %+v", len(keys), i, got[i], want[i])
			}
		}
	}
}

// TestSortKVMatchesComparisonSort is the bit-identity property of the
// package's key/count sort against a comparison-sort oracle, over the key
// shapes the freeze, the delta-run seal and the serializer meet.
func TestSortKVMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	gen := func(n int, key func(i int) uint64) ([]uint64, []uint64) {
		keys, counts := make([]uint64, n), make([]uint64, n)
		for i := range keys {
			keys[i], counts[i] = key(i), r.Uint64N(1000)+1
		}
		return keys, counts
	}
	shuffled := func(n int, key func(i int) uint64) ([]uint64, []uint64) {
		keys, counts := gen(n, key)
		r.Shuffle(n, func(i, j int) {
			keys[i], keys[j] = keys[j], keys[i]
			counts[i], counts[j] = counts[j], counts[i]
		})
		return keys, counts
	}
	// zipf draws key ranks with exponent 2: rank 0 alone takes ~60% of
	// the draws, so its cluster dominates every digit pass.
	zipf := rand.NewZipf(rand.New(rand.NewPCG(3, 4)), 2, 1, 1<<20)
	const top = uint64(1)<<63 - 1

	cases := []struct {
		name string
		n    []int
		key  func(i int) uint64
	}{
		{"uniform", []int{0, 1, 2, 7, kvInsertionMax, kvInsertionMax + 1, 1000, 70_000}, func(int) uint64 { return r.Uint64N(1 << 30) }},
		{"shared-high-bits", []int{33, 5000, 100_000}, func(int) uint64 { return 0xABCD<<40 | r.Uint64N(1<<12) }},
		{"single-varying-bit", []int{33, 4096}, func(int) uint64 { return 0x5555_0000 | r.Uint64N(2)<<17 }},
		{"dense-range", []int{33, 65_536, 300_000}, func(i int) uint64 { return 1<<20 + uint64(i) }},
		{"zipf-clustered", []int{200, 20_000, 200_000}, func(int) uint64 {
			rank := zipf.Uint64()
			return rank<<24 | r.Uint64N(1<<6)
		}},
		{"near-2^63", []int{33, 10_000}, func(int) uint64 { return top - r.Uint64N(1<<24) }},
		{"top-bit-set", []int{100, 10_000}, func(int) uint64 { return r.Uint64() }},
		{"duplicates", []int{33, deltaRunSeal, 50_000}, func(int) uint64 { return r.Uint64N(500) * 977 }},
		{"all-equal", []int{33, 5000}, func(int) uint64 { return 42 }},
	}
	for _, tc := range cases {
		for _, n := range tc.n {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				keys, counts := gen(n, tc.key)
				checkSortKV(t, keys, counts)
				keys, counts = shuffled(n, tc.key)
				checkSortKV(t, keys, counts)
			})
		}
	}

	// The skew case must actually put >90% of the entries in one top-level
	// bucket, or it exercises nothing.
	keys, _ := gen(200_000, cases[4].key)
	shift, mask := kvDigit(len(keys), varyingBits(keys))
	hist := map[uint64]int{}
	for _, k := range keys {
		hist[(k>>shift)&mask]++
	}
	if big := slices.Max(mapValues(hist)); big*10 < len(keys)*9 {
		t.Fatalf("zipf case: largest top-level bucket holds %d of %d entries, want > 90%%", big, len(keys))
	}
}

func mapValues(m map[uint64]int) []int {
	out := make([]int, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// comparisonDrain is the reference cold freeze of one partition: Range
// into pairs, then a comparison sort by key.
func comparisonDrain(part hashtable.Counter) (keys, counts []uint64) {
	var pairs []kv
	part.Range(func(key, count uint64) bool {
		pairs = append(pairs, kv{key, count})
		return true
	})
	slices.SortFunc(pairs, func(a, b kv) int { return cmp.Compare(a.key, b.key) })
	for _, e := range pairs {
		keys, counts = append(keys, e.key), append(counts, e.count)
	}
	return keys, counts
}

// TestFreezeMatchesComparisonDrain checks that FreezeCtx produces, for
// every table kind and partitioning and with more partitions than freeze
// workers, snapshot columns identical to a comparison-sorted drain.
func TestFreezeMatchesComparisonDrain(t *testing.T) {
	d := mixedData(t, 60_000, []int{2, 5, 3, 4, 2, 7, 3, 2, 6}, 71)
	for _, kind := range []TableKind{TableOpenAddressing, TableChained, TableGoMap, TableDense} {
		for _, part := range []PartitionKind{PartitionModulo, PartitionRange, PartitionHash} {
			for _, np := range []int{0, 7} {
				name := fmt.Sprintf("%s/%s/parts=%d", kind, part, np)
				t.Run(name, func(t *testing.T) {
					pt, _, err := Build(d, Options{P: 3, Table: kind, Partition: part, NumPartitions: np})
					if err != nil {
						t.Fatal(err)
					}
					parts := pt.liveParts()
					if np > 0 && len(parts) <= 3 {
						t.Fatalf("%d partitions, want more than the 3 freeze workers", len(parts))
					}
					if _, err := pt.FreezeCtx(context.Background(), 3); err != nil {
						t.Fatal(err)
					}
					ft := pt.frozen.Load()
					for i, p := range parts {
						wk, wc := comparisonDrain(p)
						if !slices.Equal(ft.parts[i].keys, wk) || !slices.Equal(ft.parts[i].counts, wc) {
							t.Fatalf("partition %d: snapshot columns differ from the comparison-sorted drain", i)
						}
					}
				})
			}
		}
	}
}

// mutatingCounter is a partition that is not quiescent during the freeze:
// every Range after the first inserts one more key before iterating.
type mutatingCounter struct {
	*hashtable.Table
	ranges int
}

func (m *mutatingCounter) Range(fn func(key, count uint64) bool) {
	m.ranges++
	if m.ranges > 1 {
		m.Table.Inc(1<<40 + uint64(m.ranges))
	}
	m.Table.Range(fn)
}

// TestDrainSortedDetectsMutation checks that a partition whose contents
// change during its drain fails the freeze with the mutation error
// instead of producing a torn snapshot: both when the first pass yields
// the wrong entry count and when the partition changes between the
// histogram pass and the scatter pass.
func TestDrainSortedDetectsMutation(t *testing.T) {
	tbl := hashtable.New(5000)
	for i := uint64(0); i < 5000; i++ {
		tbl.Add(i*3, i+1)
	}
	m := &mutatingCounter{Table: tbl}
	for _, tc := range []struct {
		name string
		cols int
	}{
		{"first-pass-count", m.Len() - 1},
		{"between-passes", m.Len()},
	} {
		m.ranges = 0
		keys, counts := make([]uint64, tc.cols), make([]uint64, tc.cols)
		err := drainSorted(m, keys, counts, 4)
		if err == nil || !strings.Contains(err.Error(), "table mutated during Freeze?") {
			t.Fatalf("%s: err = %v, want the mutation error", tc.name, err)
		}
		if tc.name == "between-passes" && m.ranges != 2 {
			t.Fatalf("%s: drain made %d Range passes, want 2", tc.name, m.ranges)
		}
	}
}
