package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"waitfreebn/internal/sched"
)

// Marginal is a dense marginal distribution table over an ordered subset of
// variables, produced by Algorithm 3. Counts are raw occurrence counts;
// Prob applies the deferred normalization by m (paper footnote 2,
// Algorithm 3 line 17).
type Marginal struct {
	Vars   []int    // the variables V, in table order
	Card   []int    // their cardinalities
	Counts []uint64 // flattened row-major counts, len = Π Card
	M      uint64   // total samples (the normalizer)
}

// Cells returns the number of cells in the marginal table.
func (mg *Marginal) Cells() int { return len(mg.Counts) }

// Count returns the raw count for the given states of Vars (same order).
func (mg *Marginal) Count(states ...uint8) uint64 {
	return mg.Counts[mg.cell(states)]
}

// Prob returns the empirical probability of the given states of Vars.
func (mg *Marginal) Prob(states ...uint8) float64 {
	if mg.M == 0 {
		return 0
	}
	return float64(mg.Counts[mg.cell(states)]) / float64(mg.M)
}

func (mg *Marginal) cell(states []uint8) int {
	if len(states) != len(mg.Vars) {
		panic(fmt.Sprintf("core: Marginal over %d variables indexed with %d states", len(mg.Vars), len(states)))
	}
	idx := 0
	for k, s := range states {
		if int(s) >= mg.Card[k] {
			panic(fmt.Sprintf("core: state %d out of range for variable %d (cardinality %d)", s, mg.Vars[k], mg.Card[k]))
		}
		idx = idx*mg.Card[k] + int(s)
	}
	return idx
}

// Total returns the sum of all counts (== M for a marginal over a complete
// table).
func (mg *Marginal) Total() uint64 {
	var total uint64
	for _, c := range mg.Counts {
		total += c
	}
	return total
}

// SumOver marginalizes further: it sums out every variable of mg except
// keep (an index into mg.Vars, not a variable id), returning the 1-D
// marginal of that variable. All-pairs MI uses this to derive P(x) and
// P(y) from P(x,y) instead of rescanning the table (Section IV-C).
func (mg *Marginal) SumOver(keep int) *Marginal {
	if keep < 0 || keep >= len(mg.Vars) {
		panic(fmt.Sprintf("core: SumOver(%d) on a %d-variable marginal", keep, len(mg.Vars)))
	}
	return mg.Project(mg.Vars[keep : keep+1])
}

// Project returns the marginal over vars — any subset of mg.Vars, listed
// in any order — by summing the other variables out. Counts are exact
// integers, so the result is bit-identical to marginalizing the table over
// vars directly; a permutation of mg.Vars is the pure reorder case. When
// vars equals mg.Vars the receiver itself is returned; otherwise the
// receiver is left untouched. One pass over mg's cells, O(cells) amortized.
//
// This is what lets one scan serve a whole family of marginals: the cache
// answers any varset covered by a cached superset, and the CI search
// derives every greedy-shrink round from the marginal of its first test.
func (mg *Marginal) Project(vars []int) *Marginal {
	k := len(mg.Vars)
	if slices.Equal(vars, mg.Vars) {
		return mg
	}
	// strideTo[j] = stride in the target layout of source axis j; 0 for
	// axes summed out.
	strideTo := make([]int, k)
	card := make([]int, len(vars))
	axis := make([]int, len(vars))
	for i, v := range vars {
		j := slices.Index(mg.Vars, v)
		if j < 0 || slices.Contains(axis[:i], j) {
			panic(fmt.Sprintf("core: Project target %v is not a subset of %v", vars, mg.Vars))
		}
		axis[i] = j
		card[i] = mg.Card[j]
	}
	cells := 1
	for i := len(vars) - 1; i >= 0; i-- {
		strideTo[axis[i]] = cells
		cells *= card[i]
	}
	out := make([]uint64, cells)
	state := make([]int, k) // odometer over the source layout
	target := 0
	for _, c := range mg.Counts {
		out[target] += c
		for j := k - 1; j >= 0; j-- {
			state[j]++
			target += strideTo[j]
			if state[j] < mg.Card[j] {
				break
			}
			target -= state[j] * strideTo[j]
			state[j] = 0
		}
	}
	return &Marginal{Vars: append([]int(nil), vars...), Card: card, Counts: out, M: mg.M}
}

// readP resolves the worker count for read-side (scan) primitives: p <= 0
// selects GOMAXPROCS. On a live table p is additionally capped at the
// partition count — partitions are the live path's unit of read parallelism
// — and the degradation is surfaced through the core_scan_clamped_total
// counter rather than silently. A frozen snapshot splits by index range, so
// no cap applies.
func (t *PotentialTable) readP(p int) int {
	if p <= 0 {
		p = sched.DefaultP()
	}
	if parts := t.liveParts(); t.frozen.Load() == nil && p > len(parts) {
		p = len(parts)
		if r := t.obs; r != nil {
			r.Help(metricScanClamped, "live scans whose worker count was capped at the partition count")
			r.Counter(metricScanClamped).Inc()
		}
	}
	return p
}

// mustScan converts an error from a Background-context scan into a panic:
// with no cancellation possible, the only failure mode left is a worker
// panic, which the legacy (non-ctx) entry points propagate loudly.
func mustScan(err error) {
	if err != nil {
		panic(err)
	}
}

// mergePartials sums partials[1:] into partials[0] and returns it.
func mergePartials(partials [][]uint64) []uint64 {
	counts := partials[0]
	for w := 1; w < len(partials); w++ {
		for c, v := range partials[w] {
			counts[c] += v
		}
	}
	return counts
}

// partialPool recycles the per-worker partial-count arrays of the scan
// kernels across queries. The lifetime rule every consumer follows:
// partials[0] escapes into the returned Marginal's Counts (and from there
// into the MarginalCache, which shares entries across requests), so it is
// always freshly allocated; only workers 1..p-1 draw from the pool, and
// they are returned immediately after mergePartials — at which point no
// reference to them survives.
var partialPool sync.Pool

// getPartials returns p per-worker partial arrays of cells zeroed counts.
// partials[0] is fresh (it will escape); the rest are pooled when a large
// enough array is available.
func getPartials(p, cells int) [][]uint64 {
	partials := make([][]uint64, p)
	partials[0] = make([]uint64, cells)
	for w := 1; w < p; w++ {
		partials[w] = pooledU64(cells)
	}
	return partials
}

func pooledU64(cells int) []uint64 {
	if v := partialPool.Get(); v != nil {
		s := *v.(*[]uint64)
		if cap(s) >= cells {
			s = s[:cells]
			clear(s)
			return s
		}
	}
	return make([]uint64, cells)
}

// putPartials releases partials[1:] back to the pool. partials[0] is left
// alone: its cells are the result the caller is about to hand out.
func putPartials(partials [][]uint64) {
	for w := 1; w < len(partials); w++ {
		s := partials[w]
		partialPool.Put(&s)
	}
}

// Marginalize computes the marginal distribution over vars using p workers
// (Algorithm 3). Each worker scans a disjoint subset of the partitions,
// decoding only the variables in vars from each key and accumulating a
// partial marginal; partials are then merged (line 16). p <= 0 selects
// GOMAXPROCS; on a live table p is additionally capped at the partition
// count, while a frozen table splits work by index range at any p (see
// readP).
//
// Deprecated: use MarginalizeCtx.
func (t *PotentialTable) Marginalize(vars []int, p int) *Marginal {
	mg, err := t.MarginalizeCtx(context.Background(), vars, p)
	mustScan(err)
	return mg
}

// MarginalizeCtx is Marginalize under the fault-tolerant execution
// contract: workers observe ctx at chunk boundaries and the scan returns
// context.Canceled (or DeadlineExceeded) in bounded time.
func (t *PotentialTable) MarginalizeCtx(ctx context.Context, vars []int, p int) (*Marginal, error) {
	p = t.readP(p)
	dec := t.codec.SubsetDecoder(vars)
	cells := dec.Cells()

	partials := getPartials(p, cells)
	if err := t.scanBlocksCtx(ctx, p, func(w int, keys, counts []uint64, _ bool) {
		pc := partials[w]
		for e, key := range keys {
			pc[dec.Cell(key)] += counts[e]
		}
	}); err != nil {
		return nil, err
	}

	card := make([]int, len(vars))
	for k, v := range vars {
		card[k] = t.codec.Cardinality(v)
	}
	counts := mergePartials(partials)
	putPartials(partials)
	return &Marginal{
		Vars:   append([]int(nil), vars...),
		Card:   card,
		Counts: counts,
		M:      t.m,
	}, nil
}

// MarginalizePair is Marginalize for the two-variable case used by the
// drafting phase; it avoids the general subset-decoder indirection with a
// fixed-arity fast path.
//
// Deprecated: use MarginalizePairCtx.
func (t *PotentialTable) MarginalizePair(i, j int, p int) *Marginal {
	mg, err := t.MarginalizePairCtx(context.Background(), i, j, p)
	mustScan(err)
	return mg
}

// MarginalizePairCtx is MarginalizePair under the fault-tolerant execution
// contract (see MarginalizeCtx).
func (t *PotentialTable) MarginalizePairCtx(ctx context.Context, i, j int, p int) (*Marginal, error) {
	p = t.readP(p)
	dec := t.codec.PairDecoder(i, j)
	ri, rj := t.codec.Cardinality(i), t.codec.Cardinality(j)
	cells := ri * rj

	partials := getPartials(p, cells)
	if err := t.scanBlocksCtx(ctx, p, func(w int, keys, counts []uint64, _ bool) {
		pc := partials[w]
		for e, key := range keys {
			pc[dec.Cell(key)] += counts[e]
		}
	}); err != nil {
		return nil, err
	}
	counts := mergePartials(partials)
	putPartials(partials)
	return &Marginal{
		Vars:   []int{i, j},
		Card:   []int{ri, rj},
		Counts: counts,
		M:      t.m,
	}, nil
}
