package structure

import (
	"testing"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/graph"
)

func learnFrom(t *testing.T, net *bn.Network, m int, seed uint64, cfg Config) *Result {
	t.Helper()
	d, err := net.Sample(m, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Learn(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLearnChainExact(t *testing.T) {
	// A strong chain must be recovered exactly: adjacent edges present,
	// transitive shortcuts thinned away.
	net := bn.Chain(6, 2, 0.85)
	res := learnFrom(t, net, 60000, 1, Config{P: 4})
	m := CompareSkeleton(res.Graph, net.DAG())
	if m.FalseNegatives != 0 || m.FalsePositives != 0 {
		t.Fatalf("chain recovery imperfect: %+v\nedges: %v", m, res.Graph.Edges())
	}
}

func TestLearnNaiveBayesExact(t *testing.T) {
	net := bn.NaiveBayes(7, 2, 0.85)
	res := learnFrom(t, net, 60000, 2, Config{P: 4})
	m := CompareSkeleton(res.Graph, net.DAG())
	if m.F1 < 1.0 {
		t.Fatalf("naive bayes recovery imperfect: %+v\nedges: %v", m, res.Graph.Edges())
	}
}

func TestLearnCancerNetwork(t *testing.T) {
	net := bn.Cancer()
	res := learnFrom(t, net, 200000, 3, Config{P: 4, Epsilon: 0.002})
	m := CompareSkeleton(res.Graph, net.DAG())
	// The pollution→cancer edge is extremely weak (ΔP ~ 1-2%), so demand
	// recall on the remaining edges and near-perfect precision.
	if m.FalsePositives > 0 {
		t.Errorf("spurious edges: %+v, got %v", m, res.Graph.Edges())
	}
	if m.TruePositives < 3 {
		t.Errorf("recovered only %d true edges: %v", m.TruePositives, res.Graph.Edges())
	}
}

func TestLearnAsiaNetwork(t *testing.T) {
	net := bn.Asia()
	res := learnFrom(t, net, 400000, 4, Config{P: 4, Epsilon: 0.003})
	m := CompareSkeleton(res.Graph, net.DAG())
	// Asia contains the notoriously weak asia→tub edge (0.01 vs 0.05) and
	// the deterministic either=OR(tub,lung) node; demand strong but not
	// perfect recovery.
	if m.Recall < 0.7 {
		t.Errorf("recall %.2f too low: %+v, edges %v", m.Recall, m, res.Graph.Edges())
	}
	if m.Precision < 0.8 {
		t.Errorf("precision %.2f too low: %+v, edges %v", m.Precision, m, res.Graph.Edges())
	}
}

func TestLearnIndependentDataYieldsEmptyGraph(t *testing.T) {
	d := dataset.NewUniformCard(50000, 8, 2)
	d.UniformIndependent(5, 4)
	res, err := Learn(d, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() != 0 {
		t.Errorf("independent data produced %d edges: %v", res.Graph.NumEdges(), res.Graph.Edges())
	}
}

func TestLearnResultInstrumentation(t *testing.T) {
	net := bn.Chain(5, 2, 0.8)
	res := learnFrom(t, net, 30000, 6, Config{P: 2})
	if res.MI == nil || res.MI.N != 5 {
		t.Error("MI matrix missing")
	}
	if res.DraftEdges <= 0 {
		t.Error("no draft edges recorded")
	}
	total := res.DraftEdges + res.ThickenEdges - res.ThinnedEdges
	if total != res.Graph.NumEdges() {
		t.Errorf("edge accounting: %d+%d-%d != %d", res.DraftEdges, res.ThickenEdges, res.ThinnedEdges, res.Graph.NumEdges())
	}
	if res.BuildStats.P == 0 {
		t.Error("build stats not captured")
	}
}

func TestLearnFromTableMatchesLearn(t *testing.T) {
	net := bn.Chain(5, 2, 0.8)
	d, err := net.Sample(20000, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Learn(d, Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := core.Build(d, core.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LearnFromTable(pt, Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %v vs %v", ea, eb)
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edges differ: %v vs %v", ea, eb)
		}
	}
}

func TestLearnDeterministicAcrossWorkers(t *testing.T) {
	net := bn.Asia()
	d, err := net.Sample(50000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ref [][2]int
	for _, p := range []int{1, 2, 4} {
		res, err := Learn(d, Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		edges := res.Graph.Edges()
		if ref == nil {
			ref = edges
			continue
		}
		if len(edges) != len(ref) {
			t.Fatalf("P=%d: edge count %d != %d", p, len(edges), len(ref))
		}
		for i := range edges {
			if edges[i] != ref[i] {
				t.Fatalf("P=%d: edges differ", p)
			}
		}
	}
}

func TestLearnRejectsSingleVariable(t *testing.T) {
	d := dataset.NewUniformCard(100, 1, 2)
	if _, err := Learn(d, Config{}); err == nil {
		t.Fatal("expected error for single-variable dataset")
	}
}

func TestThinningRemovesTriangleShortcut(t *testing.T) {
	// Chain 0→1→2 with strong links: drafting sorted by MI adds (0,1) and
	// (1,2) first; the weaker (0,2) pair is deferred and must be separated
	// by conditioning on {1} during thickening — or, if added, thinned.
	net := bn.Chain(3, 2, 0.9)
	res := learnFrom(t, net, 80000, 9, Config{P: 2})
	if res.Graph.HasEdge(0, 2) {
		t.Errorf("transitive edge (0,2) survived: %v", res.Graph.Edges())
	}
	if !res.Graph.HasEdge(0, 1) || !res.Graph.HasEdge(1, 2) {
		t.Errorf("chain edges missing: %v", res.Graph.Edges())
	}
	if res.CITests == 0 {
		t.Error("no CI tests were run")
	}
}

func TestCompareSkeleton(t *testing.T) {
	truth := graph.NewDAG(4)
	truth.MustAddEdge(0, 1)
	truth.MustAddEdge(1, 2)
	learned := graph.NewUndirected(4)
	learned.AddEdge(0, 1) // true positive
	learned.AddEdge(2, 3) // false positive
	m := CompareSkeleton(learned, truth)
	if m.TruePositives != 1 || m.FalsePositives != 1 || m.FalseNegatives != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Precision != 0.5 || m.Recall != 0.5 || m.F1 != 0.5 {
		t.Fatalf("prf: %+v", m)
	}
}

func TestCompareSkeletonEmpty(t *testing.T) {
	truth := graph.NewDAG(3)
	learned := graph.NewUndirected(3)
	m := CompareSkeleton(learned, truth)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Fatalf("empty comparison: %+v", m)
	}
}

func TestCompareSkeletonPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	CompareSkeleton(graph.NewUndirected(3), graph.NewDAG(4))
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Epsilon != 0.01 || c.MaxCondSet != 6 {
		t.Errorf("defaults: %+v", c)
	}
	// The documented default schedule is the zero value, not a resolved one.
	if c.Schedule != core.MIFused {
		t.Errorf("default schedule = %v, want %v", c.Schedule, core.MIFused)
	}
	c2 := Config{Epsilon: 0.05, MaxCondSet: 3}.withDefaults()
	if c2.Epsilon != 0.05 || c2.MaxCondSet != 3 {
		t.Errorf("explicit values overridden: %+v", c2)
	}
}

func TestLearnRandomNetworkReasonableRecovery(t *testing.T) {
	net := bn.RandomDAG(10, 2, 0.25, 2, 0.5, 77)
	if net.DAG().NumEdges() == 0 {
		t.Skip("random draw produced an empty graph")
	}
	res := learnFrom(t, net, 150000, 10, Config{P: 4, Epsilon: 0.005})
	m := CompareSkeleton(res.Graph, net.DAG())
	// Random CPTs can encode arbitrarily weak edges; require decent
	// precision (we don't invent structure) and nonzero recall.
	if m.Precision < 0.6 {
		t.Errorf("precision %.2f: %+v", m.Precision, m)
	}
	if m.TruePositives == 0 {
		t.Errorf("recovered nothing: truth %v, learned %v", net.DAG().Edges(), res.Graph.Edges())
	}
}

func TestLearnWithGTest(t *testing.T) {
	net := bn.Chain(6, 2, 0.85)
	d, err := net.Sample(60000, 71, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Learn(d, Config{P: 4, Test: TestG, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	m := CompareSkeleton(res.Graph, net.DAG())
	if m.FalseNegatives != 0 || m.FalsePositives != 0 {
		t.Fatalf("g-test chain recovery imperfect: %+v edges %v", m, res.Graph.Edges())
	}
}

func TestLearnGTestIndependentDataEmpty(t *testing.T) {
	d := dataset.NewUniformCard(50000, 8, 2)
	d.UniformIndependent(72, 4)
	res, err := Learn(d, Config{P: 4, Test: TestG, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// At alpha=0.01 over 28 pairs, expect ~0.28 false edges; allow one.
	if res.Graph.NumEdges() > 1 {
		t.Errorf("independent data produced %d edges under g-test: %v",
			res.Graph.NumEdges(), res.Graph.Edges())
	}
}

func TestTestKindString(t *testing.T) {
	if TestMIThreshold.String() != "mi-threshold" || TestG.String() != "g-test" ||
		TestKind(9).String() != "unknown" {
		t.Error("TestKind.String mismatch")
	}
}

func TestLearnGTestMoreSensitiveThanLooseEpsilon(t *testing.T) {
	// The asia→tub edge (I ≈ 0.0006 bits) is invisible to the default
	// ε = 0.01 but significant under the G test at large m:
	// G = 2·m·ln2·I ≈ 2·400000·0.69·0.0006 ≈ 330 ≫ χ²₁(0.01) ≈ 6.6.
	net := bn.Asia()
	d, err := net.Sample(400000, 73, 4)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := Learn(d, Config{P: 4}) // default ε = 0.01
	if err != nil {
		t.Fatal(err)
	}
	g, err := Learn(d, Config{P: 4, Test: TestG, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if mi.Graph.HasEdge(0, 2) {
		t.Skip("ε-threshold unexpectedly found the weak edge; nothing to compare")
	}
	if !g.Graph.HasEdge(0, 2) {
		t.Errorf("g-test missed the asia-tub edge: %v", g.Graph.Edges())
	}
}
