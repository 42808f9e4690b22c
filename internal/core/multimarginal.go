package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"waitfreebn/internal/encoding"
)

// MarginalizeMany computes marginal tables for several variable subsets in
// a single pass over the potential table. Algorithm 3 scans all partitions
// once per marginal; when a consumer needs many marginals (the CI-test
// batches of thickening, or sufficient statistics for score-based search),
// fusing the scans amortizes the per-key cost the same way the fused
// all-pairs-MI schedule does: each key is visited once and contributes to
// every requested marginal.
//
// The result is index-aligned with varsets. p <= 0 selects GOMAXPROCS.
//
// Deprecated: use MarginalizeManyCtx.
func (t *PotentialTable) MarginalizeMany(varsets [][]int, p int) []*Marginal {
	out, err := t.MarginalizeManyCtx(context.Background(), varsets, p)
	mustScan(err)
	return out
}

// MarginalizeManyCtx is MarginalizeMany under the fault-tolerant execution
// contract (see MarginalizeCtx).
//
// The scan decodes each variable of the batch once per key, however many
// of the requested subsets share it: the union of the subsets' variables
// is decoded block-wise into state columns, and each marginal's cell index
// is a sum of column × stride terms. On a frozen snapshot's sorted blocks a
// variable whose digit cannot change across the block is decoded once for
// the whole block, and a marginal none of whose variables vary takes the
// block's total count in a single cell.
func (t *PotentialTable) MarginalizeManyCtx(ctx context.Context, varsets [][]int, p int) ([]*Marginal, error) {
	if len(varsets) == 0 {
		return nil, nil
	}
	p = t.readP(p)
	pl := t.newManyPlan(varsets)
	partials := getPartials(p, pl.offsets[len(varsets)])
	scratch := make([]*manyScratch, p)
	defer func() {
		for _, sc := range scratch {
			if sc != nil {
				manyScratchPool.Put(sc)
			}
		}
	}()
	if err := t.scanBlocksCtx(ctx, p, func(w int, keys, counts []uint64, sorted bool) {
		if scratch[w] == nil {
			scratch[w] = getManyScratch(len(pl.decs))
		}
		pl.block(scratch[w], partials[w], keys, counts, sorted)
	}); err != nil {
		return nil, err
	}
	merged := mergePartials(partials)
	putPartials(partials)

	out := make([]*Marginal, len(varsets))
	for k, vars := range varsets {
		card := make([]int, len(vars))
		for i, v := range vars {
			card[i] = t.codec.Cardinality(v)
		}
		lo, hi := pl.offsets[k], pl.offsets[k+1]
		out[k] = &Marginal{
			Vars:   append([]int(nil), vars...),
			Card:   card,
			Counts: merged[lo:hi:hi],
			M:      t.m,
		}
	}
	return out, nil
}

// manyPlan is the per-scan layout of a fused multi-marginal scan.
type manyPlan struct {
	decs    []encoding.VarDecoder // one per variable of the union, in column order
	terms   []manyTerm            // every marginal's terms, marginal by marginal
	tstart  []int                 // marginal k's terms are terms[tstart[k]:tstart[k+1]]
	offsets []int                 // marginal k's cells are [offsets[k], offsets[k+1])
}

// manyTerm is one variable of one requested marginal: the union column it
// reads and its row-major stride within that marginal.
type manyTerm struct{ col, stride int }

// subsetCells returns the cell count of the marginal over vars. It panics,
// as Codec.SubsetDecoder does, on an empty subset, an unknown variable, or
// a variable repeated within the subset, without building a decoder.
func (t *PotentialTable) subsetCells(vars []int) int {
	if len(vars) == 0 {
		panic("core: marginal over an empty variable set")
	}
	cells := 1
	for i, v := range vars {
		if v < 0 || v >= t.codec.NumVars() {
			panic(fmt.Sprintf("core: variable %d out of range [0,%d)", v, t.codec.NumVars()))
		}
		if slices.Contains(vars[:i], v) {
			panic(fmt.Sprintf("core: duplicate variable %d in subset %v", v, vars))
		}
		cells *= t.codec.Cardinality(v)
	}
	return cells
}

// newManyPlan lays out the union columns, terms and cell offsets for
// varsets, panicking on an invalid subset (see subsetCells).
func (t *PotentialTable) newManyPlan(varsets [][]int) *manyPlan {
	terms := 0
	for _, vars := range varsets {
		terms += len(vars)
	}
	pl := &manyPlan{
		terms:   make([]manyTerm, 0, terms),
		tstart:  make([]int, len(varsets)+1),
		offsets: make([]int, len(varsets)+1),
	}
	col := make([]int, t.codec.NumVars()) // variable → union column + 1
	for k, vars := range varsets {
		cells := t.subsetCells(vars)
		stride := cells
		for _, v := range vars {
			if col[v] == 0 {
				pl.decs = append(pl.decs, t.codec.VarDecoder(v))
				col[v] = len(pl.decs)
			}
			stride /= t.codec.Cardinality(v)
			pl.terms = append(pl.terms, manyTerm{col: col[v] - 1, stride: stride})
		}
		pl.tstart[k+1] = len(pl.terms)
		pl.offsets[k+1] = pl.offsets[k] + cells
	}
	return pl
}

// manyScratch is one worker's block-decoding state for a manyPlan.
type manyScratch struct {
	col    []uint8 // union column c occupies col[c*scanBlockSize:][:b]
	constV []int   // constV[c] is column c's state across a sorted block, or -1
	idx    []int   // per-entry cell index of the marginal being accumulated
}

// manyScratchPool recycles manyScratch working sets across scans, so the
// learner's many small fused scans do not each allocate their columns.
var manyScratchPool sync.Pool

// getManyScratch returns a worker scratch for a plan with cols union
// columns, reusing a pooled one when it is large enough.
func getManyScratch(cols int) *manyScratch {
	if v := manyScratchPool.Get(); v != nil {
		if sc := v.(*manyScratch); len(sc.constV) >= cols {
			return sc
		}
	}
	return &manyScratch{
		col:    make([]uint8, cols*scanBlockSize),
		constV: make([]int, cols),
		idx:    make([]int, scanBlockSize),
	}
}

// block accumulates one delivered block of entries into pc, the worker's
// partial counts for every marginal of the plan.
func (pl *manyPlan) block(sc *manyScratch, pc []uint64, keys, counts []uint64, sorted bool) {
	b := len(keys)
	if b == 0 {
		return
	}
	first, last := keys[0], keys[b-1]
	for c, d := range pl.decs {
		if sorted && d.Quot(first) == d.Quot(last) {
			sc.constV[c] = int(d.Decode(first))
			continue
		}
		sc.constV[c] = -1
		d.DecodeBlock(keys, sc.col[c*scanBlockSize:])
	}
	idx := sc.idx[:b]
	total := uint64(0) // the block's count mass, computed on first need
	for k := 0; k+1 < len(pl.offsets); k++ {
		base := pl.offsets[k]
		varying := false
		for _, tm := range pl.terms[pl.tstart[k]:pl.tstart[k+1]] {
			if v := sc.constV[tm.col]; v >= 0 {
				base += v * tm.stride
				continue
			}
			col := sc.col[tm.col*scanBlockSize:][:b]
			if !varying {
				for e, s := range col {
					idx[e] = int(s) * tm.stride
				}
				varying = true
				continue
			}
			for e, s := range col {
				idx[e] += int(s) * tm.stride
			}
		}
		if !varying {
			if total == 0 {
				for _, c := range counts {
					total += c
				}
			}
			pc[base] += total
			continue
		}
		tile := pc[base:]
		for e, c := range counts {
			tile[idx[e]] += c
		}
	}
}
