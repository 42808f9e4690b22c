package main

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/obs"
	"waitfreebn/internal/stats"
)

// initShape is the init-rows4m input: the paper's uniform independent
// binary data (Sec. V). It must stay binary: the MI reference counts pairs
// with column bitsets.
type initShape struct{ m, n int }

var (
	initFull = initShape{m: 4_000_000, n: 30}
	initTiny = initShape{m: 20_000, n: 8}
)

// initOp is one initialization: the wait-free build at default Options,
// the freeze, and the fused all-pairs MI sweep.
func initOp(ctx context.Context, data *dataset.Dataset, reg *obs.Registry, tr *tracer, op int) (*core.PotentialTable, *core.MIMatrix, core.Stats, core.FreezeStats, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	b := tr.begin("core.build", op, root)
	pt, st, err := core.BuildCtx(ctx, data, core.Options{Obs: reg})
	tr.end(b)
	if err != nil {
		return nil, nil, st, core.FreezeStats{}, err
	}
	deriveStages(tr, b, st)
	f := tr.begin("core.freeze", op, root)
	fst, err := pt.FreezeCtx(ctx, 0)
	tr.end(f)
	if err != nil {
		return nil, nil, st, fst, err
	}
	m := tr.begin("core.allpairs_mi", op, root)
	mi, err := pt.AllPairsMICtx(ctx, 0, core.MIFused)
	tr.end(m)
	return pt, mi, st, fst, err
}

// rowMI is the MI reference: every pair's 2×2 contingency table counted
// straight from the rows with column bitsets (N11 = popcount of the AND of
// two columns), reduced by the same exact-count MI function the program
// uses. It shares no code with the table, the scan kernels or the MI
// schedules.
func rowMI(d *dataset.Dataset) (*core.MIMatrix, error) {
	n, m := d.NumVars(), d.NumSamples()
	for j := 0; j < n; j++ {
		if d.Cardinality(j) != 2 {
			return nil, fmt.Errorf("row MI reference needs binary variables, variable %d has %d states", j, d.Cardinality(j))
		}
	}
	words := (m + 63) / 64
	cols := make([][]uint64, n)
	for j := range cols {
		cols[j] = make([]uint64, words)
	}
	for i := 0; i < m; i++ {
		for j, s := range d.Row(i) {
			cols[j][i>>6] |= uint64(s) << (i & 63)
		}
	}
	ones := make([]uint64, n)
	for j, c := range cols {
		for _, w := range c {
			ones[j] += uint64(bits.OnesCount64(w))
		}
	}
	mi := core.NewMIMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var n11 uint64
			for k, w := range cols[i] {
				n11 += uint64(bits.OnesCount64(w & cols[j][k]))
			}
			n10, n01 := ones[i]-n11, ones[j]-n11
			n00 := uint64(m) - n11 - n10 - n01
			mi.Set(i, j, stats.MutualInfoCounts([]uint64{n00, n01, n10, n11}, 2, 2))
		}
	}
	return mi, nil
}

func sameMI(a, b *core.MIMatrix) bool {
	if a.N != b.N {
		return false
	}
	same := true
	a.ForEachPair(func(i, j int, v float64) {
		if b.At(i, j) != v {
			same = false
		}
	})
	return same
}

// tableDigest is an order-independent hash of a table's key→count
// mapping, so tables built with any partitioning compare equal exactly
// when they hold the same counts (up to a 2^-64 collision chance).
type tableDigest struct {
	sum     uint64
	entries int
	m       uint64
}

func digestTable(pt *core.PotentialTable) tableDigest {
	d := tableDigest{entries: pt.Len(), m: pt.NumSamples()}
	pt.Range(func(key, count uint64) bool {
		d.sum += mix64(key ^ mix64(count+0x9e3779b97f4a7c15))
		return true
	})
	return d
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func runInit(ctx context.Context, c config) (*outcome, error) {
	shape := initFull
	if c.tiny {
		shape = initTiny
	}
	var data *dataset.Dataset
	setupS, err := timeSetups(c.setups, func() error {
		data = dataset.NewUniformCard(shape.m, shape.n, 2)
		data.UniformIndependent(c.seed, 0)
		return nil
	}, func() error { data = nil; return nil })
	if err != nil {
		return nil, err
	}

	// Each op's table is reduced to a digest and released before the next
	// op starts; its MI matrix is kept.
	var pt *core.PotentialTable
	var mi *core.MIMatrix
	var tables []tableDigest
	var mis []*core.MIMatrix
	record := func(int) error {
		tables, mis = append(tables, digestTable(pt)), append(mis, mi)
		pt, mi = nil, nil
		return nil
	}
	budget := c.seconds
	if c.trace {
		budget /= 2
	}
	run, err := timedOps(ctx, budget, 3, func(i int) (err error) {
		pt, mi, _, _, err = initOp(ctx, data, nil, nil, i)
		return err
	}, record)
	if err != nil {
		return nil, err
	}
	out := &outcome{details: map[string]any{"m": shape.m, "n": shape.n}}
	if out.endToEnd, err = opEndToEnd(run, setupS, out.details); err != nil {
		return nil, err
	}
	if c.trace {
		if err := traceInit(ctx, c, data, run.durs, out, record, &pt, &mi); err != nil {
			return nil, err
		}
	}

	// References, after the measurement so they add nothing to the peak
	// RSS: the single-threaded table, and MI counted from the rows. One more
	// build, untimed, is compared with the reference key by key, which also
	// checks the digest against Equal.
	ref, err := core.BuildSequential(data)
	if err != nil {
		return nil, err
	}
	refMI, err := rowMI(data)
	if err != nil {
		return nil, err
	}
	refDigest := digestTable(ref)
	out.details["distinct_keys"] = ref.Len()
	out.attempted = len(tables)
	for k := range tables {
		if tables[k] != refDigest || !sameMI(mis[k], refMI) {
			out.failed++
		}
	}
	again, _, err := core.BuildCtx(ctx, data, core.Options{})
	if err != nil {
		return nil, err
	}
	out.correct = out.failed == 0 && again.Equal(ref) && digestTable(again) == refDigest
	return out, nil
}

// traceInit is the traced half of an init-rows4m trace run.
func traceInit(ctx context.Context, c config, data *dataset.Dataset, untraced []time.Duration,
	out *outcome, record func(int) error, pt **core.PotentialTable, mi **core.MIMatrix) error {
	reg := obs.NewRegistry()
	tr := newTracer(64)
	var md memDelta
	var builds []core.Stats
	var entries, scanPasses, scanEntries, allocs, gcs []float64
	traced, err := timedOps(ctx, c.seconds/2, 3, func(i int) error {
		passes0, entries0 := scanTotals(reg)
		md.start()
		var st core.Stats
		var fst core.FreezeStats
		var err error
		*pt, *mi, st, fst, err = initOp(ctx, data, reg, tr, i)
		if err != nil {
			return err
		}
		a, g := md.stop()
		allocs, gcs = append(allocs, a), append(gcs, g)
		passes1, entries1 := scanTotals(reg)
		scanPasses = append(scanPasses, passes1-passes0)
		scanEntries = append(scanEntries, entries1-entries0)
		builds = append(builds, st)
		entries = append(entries, float64(fst.Entries))
		return nil
	}, record)
	if err != nil {
		return err
	}
	p1, px, err := buildScaling(ctx, data)
	if err != nil {
		return err
	}
	self := layerDurations(tr.spans, selfTimes(tr.spans))
	total := layerDurations(tr.spans, spanDurations(tr.spans))
	miMS := medianMS(total["core.allpairs_mi"])
	pl := map[string]float64{
		"core.build_ms":             medianMS(total["core.build"]),
		"core.build.p1_ms":          p1,
		"core.build.scaling_x":      p1 / px,
		"core.freeze_ms":            medianMS(total["core.freeze"]),
		"core.freeze.entries":       median(entries),
		"core.allpairs_mi_ms":       miMS,
		"core.mi.computed_gb_per_s": median(entries) * 16 / (miMS / 1e3) / 1e9,
		"core.scan_passes":          median(scanPasses),
		"core.scan_entries":         median(scanEntries),
		"runtime.alloc_mb_per_op":   median(allocs),
		"runtime.gc_cycles_per_op":  median(gcs),
		"unattributed_ms":           medianMS(self["op"]),
	}
	addBuildStats(pl, builds)
	return finishTrace(c, "init-rows4m", out, untraced, traced.durs, tr, pl)
}
