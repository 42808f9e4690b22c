package structure

import (
	"context"
	"testing"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/obs"
)

// scanEverySource is the reference margSource: every varset, including
// every greedy-shrink reduction, is marginalized by its own uncached,
// unfused table scan.
type scanEverySource struct{ l *learner }

func (s *scanEverySource) marginals(varsets [][]int) ([]*core.Marginal, error) {
	out := make([]*core.Marginal, len(varsets))
	for k, vars := range varsets {
		mg, err := s.l.pt.MarginalizeCtx(s.l.ctx, vars, s.l.cfg.P)
		if err != nil {
			return nil, err
		}
		out[k] = mg
	}
	return out, nil
}

func (s *scanEverySource) project(_ *core.Marginal, varsets [][]int) ([]*core.Marginal, error) {
	return s.marginals(varsets)
}

// roundScanSource reads the table the way the learner did before the CI
// search projected its rounds: one fused scan per greedy round, no cache.
type roundScanSource struct{ l *learner }

func (s *roundScanSource) marginals(varsets [][]int) ([]*core.Marginal, error) {
	return s.l.pt.MarginalizeManyCtx(s.l.ctx, varsets, s.l.cfg.P)
}

func (s *roundScanSource) project(_ *core.Marginal, varsets [][]int) ([]*core.Marginal, error) {
	return s.marginals(varsets)
}

// learnWith runs the serial learner with its marginal source replaced.
func learnWith(t *testing.T, pt *core.PotentialTable, cfg Config, src func(*learner) margSource) *Result {
	t.Helper()
	l, err := newLearner(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.src = src(l)
	res, err := l.learn()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProjectedCISearchMatchesScanOracle: the learner's one-scan-per-
// candidate-set CI search — serial with the default cache, and the
// wavefront — learns exactly what a learner that scans the table for every
// single varset learns: the same skeleton, sepsets, CI-test count and
// counters, for both decision rules.
func TestProjectedCISearchMatchesScanOracle(t *testing.T) {
	net := bn.RandomDAG(14, 2, 0.3, 3, 0.6, 25)
	d, err := net.Sample(40000, 26, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(d, core.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		base Config
	}{
		{"mi-threshold", Config{Epsilon: 0.003, P: 2}},
		{"g-test", Config{Test: TestG, Alpha: 0.01, P: 2, MaxCondSet: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle := learnWith(t, pt, tc.base, func(l *learner) margSource { return &scanEverySource{l} })
			if oracle.CITests < 20 || oracle.Sepsets.Len() == 0 {
				t.Fatalf("network exercises too little CI search: %d tests, %d sepsets",
					oracle.CITests, oracle.Sepsets.Len())
			}
			serial, err := LearnFromTable(pt, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "serial vs oracle", oracle, serial)
			if serial.Cache.Misses == 0 {
				t.Errorf("serial learner did not use its default cache: %v", serial.Cache)
			}
			waveCfg := tc.base
			waveCfg.PhasePar = true
			waveCfg.WaveSize = 5
			wave, err := LearnFromTable(pt, waveCfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "wavefront vs oracle", oracle, wave)
			for i := 0; i < oracle.MI.N; i++ {
				for j := i + 1; j < oracle.MI.N; j++ {
					if a, b, c := oracle.MI.At(i, j), serial.MI.At(i, j), wave.MI.At(i, j); a != b || a != c {
						t.Fatalf("MI(%d,%d): oracle %v, serial %v, wavefront %v", i, j, a, b, c)
					}
				}
			}
		})
	}
}

// TestProjectedCISearchCutsScans: on the benchmark's learn-dag40 network
// (at a fifth of its rows), the table scans of thicken + thin fall at
// least 3x against one fused scan per greedy round without a cache — the
// learner's former read pattern — measured by core_scan_passes_total.
func TestProjectedCISearchCutsScans(t *testing.T) {
	net := bn.RandomDAG(40, 2, 0.15, 3, 0.6, 42)
	d, err := net.Sample(40000, 43, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pt, _, err := core.Build(d, core.Options{P: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := pt.FreezeCtx(ctx, 2); err != nil {
		t.Fatal(err)
	}
	passes := func() uint64 { return reg.Counter("core_scan_passes_total", "path", "frozen").Value() }
	cfg := Config{P: 2}

	p0 := passes()
	if _, err := pt.AllPairsMICtx(ctx, cfg.P, cfg.Schedule); err != nil {
		t.Fatal(err)
	}
	draft := passes() - p0

	ciPasses := func(cfg Config, src func(*learner) margSource) (uint64, *Result) {
		before := passes()
		res := learnWith(t, pt, cfg, src)
		return passes() - before - draft, res
	}
	// The per-round reference has no cache, so nothing is prefetched.
	uncached := cfg
	uncached.MargCacheCells = -1
	old, oldRes := ciPasses(uncached, func(l *learner) margSource { return &roundScanSource{l} })
	now, nowRes := ciPasses(cfg, func(l *learner) margSource { return &directMargSource{l: l} })
	requireSameResult(t, "projected vs per-round scans", oldRes, nowRes)
	t.Logf("thicken+thin scan passes: %d per greedy round → %d (%d CI tests)", old, now, nowRes.CITests)
	if now == 0 || old < 3*now {
		t.Errorf("scan passes %d → %d: want at least a 3x cut", old, now)
	}
}
