// Wavefront scheduling for phases 2 and 3 (thickening and thinning).
//
// The serial learner processes pending pairs one CI test at a time, and
// every test can mutate the graph that the next test's candidate
// conditioning sets are computed from — a loop-carried dependence that
// defeats naive parallelization. The wavefront breaks it speculatively:
//
//  1. Speculate: take the next WaveSize pending items, compute each item's
//     candidate conditioning sets against the current graph (read-only),
//     and evaluate all their CI searches concurrently under sched.RunCtx.
//     A coordinator goroutine collects the marginalization requests the
//     searches emit and, whenever every live search is blocked on one,
//     fuses the whole batch into shared table scans through
//     core.MarginalizeManyCachedCtx — so the potential table is read once
//     per rendezvous round for the entire wave, not once per pair. A
//     search reads the table once per candidate set (its greedy rounds
//     project locally), so a wave has at most two rendezvous rounds.
//  2. Commit: walk the wave in the serial order. An item whose candidate
//     sets are unchanged by the commits before it (checked by a graph-epoch
//     fast path, else by recomputing the sets) gets the serial decision —
//     a CI outcome is a pure function of (candidate sets, pair, table,
//     config) — and its effect is applied. The first invalidated item
//     stops the commit; it and everything after it requeue, in order, for
//     the next wave.
//
// The first item of a wave always validates (nothing commits before it),
// so every wave makes progress and the learned skeleton, sepsets, and
// deterministic counters are bit-identical to the serial learner's at any
// worker count. Wave composition never depends on P or on goroutine
// scheduling, so Waves/Requeued/WastedCITests are reproducible too; only
// cache hit/miss splits can vary with request arrival order.

package structure

import (
	"context"

	"waitfreebn/internal/core"
	"waitfreebn/internal/graph"
	"waitfreebn/internal/obs"
	"waitfreebn/internal/sched"
)

// waveItem is one speculated pair/edge within a wave.
type waveItem struct {
	x, y   int
	n1, n2 []int // candidate conditioning sets at speculation time

	skip  bool    // thin: predicate said "no CI needed" at speculation time
	eval  *ciEval // the (local-counter) evaluation, nil for skipped items
	hasCI bool    // evaluation completed and set/sep are meaningful
	set   []int
	sep   bool
}

// margRequest is one batch of varsets a CI search needs marginalized, with
// the channel its reply comes back on.
type margRequest struct {
	varsets [][]int
	reply   chan margReply
}

type margReply struct {
	ms  []*core.Marginal
	err error
}

// waveEvent is what item goroutines post to the coordinator: a marginal
// request, or (req == nil) completion of the whole search.
type waveEvent struct {
	req *margRequest
}

// waveMargSource routes a ciEval's table reads through the wave
// coordinator instead of scanning the table itself; projections of a
// marginal the search already holds stay local to the search.
type waveMargSource struct {
	projector
	events chan<- waveEvent
}

func (s *waveMargSource) marginals(varsets [][]int) ([]*core.Marginal, error) {
	req := &margRequest{varsets: varsets, reply: make(chan margReply, 1)}
	s.events <- waveEvent{req: req}
	r := <-req.reply
	return r.ms, r.err
}

// runWave evaluates the CI searches of every non-skipped item concurrently.
// Item results land in the items themselves; the returned error is the
// RunCtx root cause (a search error or cancellation).
func (l *learner) runWave(items []*waveItem) error {
	active := make([]*waveItem, 0, len(items))
	for _, it := range items {
		if !it.skip {
			active = append(active, it)
		}
	}
	if len(active) == 0 {
		return nil
	}
	// Each search posts at most one outstanding request before blocking and
	// exactly one completion, so the buffer makes every send non-blocking.
	events := make(chan waveEvent, 2*len(active))
	runErr := make(chan error, 1)
	go func() {
		runErr <- sched.RunCtx(l.ctx, len(active), func(ctx context.Context, w int) error {
			it := active[w]
			it.eval = l.newEval(ctx, &waveMargSource{events: events})
			defer func() { events <- waveEvent{} }()
			set, sep, err := it.eval.tryToSeparate(it.n1, it.n2, it.x, it.y)
			if err != nil {
				return err
			}
			it.set, it.sep, it.hasCI = set, sep, true
			return nil
		})
	}()

	// Rendezvous loop: batch whenever every live search is waiting on a
	// request. Completions shrink the quorum, so a wave whose searches
	// need different numbers of candidate sets still fuses maximally — the
	// scans per wave equal the largest per-search request count, not the
	// sum.
	live := len(active)
	var pending []*margRequest
	for live > 0 {
		ev := <-events
		if ev.req == nil {
			live--
		} else {
			pending = append(pending, ev.req)
		}
		if live > 0 && len(pending) == live {
			l.serveBatch(pending)
			pending = pending[:0]
		}
	}
	return <-runErr
}

// serveBatch fuses the outstanding requests of one rendezvous round into
// shared cached scans and distributes the reply slices. On a scan error
// every waiter is released with the error so no search blocks forever.
func (l *learner) serveBatch(reqs []*margRequest) {
	total := 0
	for _, r := range reqs {
		total += len(r.varsets)
	}
	all := make([][]int, 0, total)
	for _, r := range reqs {
		all = append(all, r.varsets...)
	}
	ms, err := l.pt.MarginalizeManyCachedCtx(l.ctx, all, l.cfg.P, l.cache)
	off := 0
	for _, r := range reqs {
		if err != nil {
			r.reply <- margReply{err: err}
		} else {
			r.reply <- margReply{ms: ms[off : off+len(r.varsets)]}
		}
		off += len(r.varsets)
	}
}

// thickenWave is phase 2 under the wavefront scheduler: bit-identical to
// learner.thicken, with each wave's CI searches evaluated concurrently.
func (l *learner) thickenWave(g *graph.Undirected, deferred []pair) error {
	pending := deferred
	for len(pending) > 0 {
		if err := l.checkCtx(); err != nil {
			return err
		}
		wave := pending[:min(l.cfg.WaveSize, len(pending))]
		rest := pending[len(wave):]
		epoch0 := g.Epoch()
		items := make([]*waveItem, len(wave))
		for k, p := range wave {
			items[k] = &waveItem{x: p.i, y: p.j,
				n1: g.NeighborsOnPaths(p.i, p.j),
				n2: g.NeighborsOnPaths(p.j, p.i)}
		}
		if err := l.runWave(items); err != nil {
			return err
		}
		l.res.Waves++
		commit := len(wave)
		for k, it := range items {
			// Epoch unchanged ⇒ no commit before this item touched the
			// graph, so the speculation graph is still the serial graph.
			// Otherwise the decision stands iff the candidate sets are
			// unchanged by the earlier commits.
			if g.Epoch() != epoch0 &&
				!(sameVars(it.n1, g.NeighborsOnPaths(it.x, it.y)) &&
					sameVars(it.n2, g.NeighborsOnPaths(it.y, it.x))) {
				commit = k
				break
			}
			l.res.CITests += it.eval.tests
			l.res.CondSetTruncations += it.eval.truncated
			if it.sep {
				l.res.Sepsets.Put(it.x, it.y, it.set)
			} else {
				g.AddEdge(it.x, it.y)
				l.res.ThickenEdges++
			}
		}
		pending = l.requeue(items, wave, rest, commit)
	}
	return nil
}

// thinWave is phase 3 under the wavefront scheduler: bit-identical to
// learner.thin. Thinning only removes edges, which makes the speculation
// predicates monotone: an edge skipped at speculation time (already gone,
// or sole connection between its endpoints) can only remain skippable at
// commit time, so "no CI needed" decisions never invalidate. The CI search
// itself runs with the edge still in place — NeighborsOnPaths(u, v) blocks
// u, so the direct edge never contributes to the candidate sets and the
// sets equal the ones the serial learner computes after removing the edge.
func (l *learner) thinWave(g *graph.Undirected) error {
	edges := g.Edges()
	pending := make([]pair, len(edges))
	for k, e := range edges {
		pending[k] = pair{i: e[0], j: e[1]}
	}
	for len(pending) > 0 {
		if err := l.checkCtx(); err != nil {
			return err
		}
		wave := pending[:min(l.cfg.WaveSize, len(pending))]
		rest := pending[len(wave):]
		epoch0 := g.Epoch()
		items := make([]*waveItem, len(wave))
		for k, p := range wave {
			it := &waveItem{x: p.i, y: p.j}
			if !g.HasEdge(p.i, p.j) || !g.AdjacencyPath(p.i, p.j) {
				it.skip = true
			} else {
				it.n1 = g.NeighborsOnPaths(p.i, p.j)
				it.n2 = g.NeighborsOnPaths(p.j, p.i)
			}
			items[k] = it
		}
		if err := l.runWave(items); err != nil {
			return err
		}
		l.res.Waves++
		commit := len(wave)
		for k, it := range items {
			// The serial predicates, evaluated fresh at commit time.
			if !g.HasEdge(it.x, it.y) {
				continue // removed earlier in this phase
			}
			if !g.AdjacencyPath(it.x, it.y) {
				// The edge became the endpoints' only connection after an
				// earlier commit removed another edge: keep it untested,
				// as the serial learner does. Any speculative CI work on
				// it is discarded.
				if it.hasCI {
					l.res.WastedCITests += it.eval.tests
				}
				continue
			}
			if !it.hasCI {
				// Defensive: with monotone predicates a spec-time skip
				// cannot need a CI test at commit time, but if it ever
				// does, requeue rather than commit an untested decision.
				commit = k
				break
			}
			if g.Epoch() != epoch0 &&
				!(sameVars(it.n1, g.NeighborsOnPaths(it.x, it.y)) &&
					sameVars(it.n2, g.NeighborsOnPaths(it.y, it.x))) {
				commit = k
				break
			}
			l.res.CITests += it.eval.tests
			l.res.CondSetTruncations += it.eval.truncated
			if it.sep {
				g.RemoveEdge(it.x, it.y)
				l.res.Sepsets.Put(it.x, it.y, it.set)
				l.res.ThinnedEdges++
			}
		}
		pending = l.requeue(items, wave, rest, commit)
	}
	return nil
}

// requeue accounts for the invalidated tail of a wave and rebuilds the
// pending list: the uncommitted items, in their original order, ahead of
// the untouched remainder.
func (l *learner) requeue(items []*waveItem, wave, rest []pair, commit int) []pair {
	if commit == len(wave) {
		return rest
	}
	for _, it := range items[commit:] {
		if it.eval != nil {
			l.res.WastedCITests += it.eval.tests
		}
	}
	l.res.Requeued += len(wave) - commit
	next := make([]pair, 0, len(wave)-commit+len(rest))
	next = append(next, wave[commit:]...)
	next = append(next, rest...)
	return next
}

// Metric names published per learn. Documented in README.md
// ("Observability"); keep the two in sync.
const (
	metricPhaseSeconds  = "structure_phase_seconds"
	metricCITests       = "structure_ci_tests_total"
	metricTruncations   = "structure_condset_truncations_total"
	metricWaves         = "structure_waves_total"
	metricRequeued      = "structure_requeued_total"
	metricWastedCITests = "structure_wasted_ci_tests_total"
)

// publishLearnMetrics records one completed learn into the registry. It
// runs after the phases have finished, so everything it reads is quiescent.
func publishLearnMetrics(r *obs.Registry, res *Result) {
	if r == nil {
		return
	}
	r.Help(metricPhaseSeconds, "wall clock of the last learn, by phase")
	r.Gauge(metricPhaseSeconds, "phase", "draft").Set(res.DraftTime.Seconds())
	r.Gauge(metricPhaseSeconds, "phase", "thicken").Set(res.ThickenTime.Seconds())
	r.Gauge(metricPhaseSeconds, "phase", "thin").Set(res.ThinTime.Seconds())
	r.Help(metricCITests, "conditional-independence tests committed by the learner")
	r.Counter(metricCITests).Add(uint64(res.CITests))
	r.Counter(metricTruncations).Add(uint64(res.CondSetTruncations))
	r.Help(metricWaves, "speculation rounds run by the phase-2/3 wavefront")
	r.Counter(metricWaves).Add(uint64(res.Waves))
	r.Counter(metricRequeued).Add(uint64(res.Requeued))
	r.Help(metricWastedCITests, "speculative CI tests discarded by wave invalidation")
	r.Counter(metricWastedCITests).Add(uint64(res.WastedCITests))
}
