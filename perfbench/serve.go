package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/encoding"
	"waitfreebn/internal/obs"
	"waitfreebn/internal/serve"
	"waitfreebn/internal/stats"
)

// serveShape is the serve-mix input. The write rate is fixed (open loop),
// so the refresh work per second does not grow with read speed, and
// tailPct is chosen with it: at 2 batches/s each epoch invalidates the 64
// cached answers, so about 1% of reads miss the cache and scan the table,
// and the 99.9th percentile falls inside that miss population instead of
// on the boundary between hits and misses (which the 99th does).
type serveShape struct {
	m, n, r   int     // preloaded rows and their shape
	queries   int     // distinct read queries
	batch     int     // rows per ingest batch
	rate      float64 // ingest batches per second
	tailPct   float64 // highest percentile read_tail may be reported at
	maxReadsS int     // latency buffer size per second of run
}

var (
	serveFull = serveShape{m: 200_000, n: 12, r: 3, queries: 64, batch: 256, rate: 2, tailPct: 99.9, maxReadsS: 30_000}
	serveTiny = serveShape{m: 4_000, n: 6, r: 3, queries: 16, batch: 32, rate: 10, tailPct: 99.9, maxReadsS: 30_000}
)

// readTimeout bounds one read; a read that takes longer fails.
const readTimeout = 2 * time.Second

// serveConfig is bnserve's default configuration (no WAL).
func serveConfig(codec *encoding.Codec, reg *obs.Registry) serve.Config {
	return serve.Config{
		Codec:          codec,
		Build:          core.Options{Obs: reg},
		MargCacheCells: 1 << 16,
		CoalesceWindow: 200 * time.Microsecond,
		MaxInflight:    64,
		QueueTimeout:   100 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		RefreshEvery:   500 * time.Millisecond,
		IngestBatch:    8192,
		MaxPending:     1 << 20,
	}
}

// serveInputs is everything a serve-mix run sends, generated from the seed
// before any server starts.
type serveInputs struct {
	shape   serveShape
	preload *dataset.Dataset
	urls    []string
	vars    [][]int // the variables of each query, in response order
	isMI    []bool
	kinds   [3][]int    // query indexes by kind: one-variable, pair, MI
	batches [][][]uint8 // ingest batch rows
	bodies  [][]byte    // pre-encoded ingest bodies
}

func makeServeInputs(shape serveShape, seed uint64, seconds time.Duration) (*serveInputs, error) {
	in := &serveInputs{shape: shape}
	in.preload = dataset.NewUniformCard(shape.m, shape.n, shape.r)
	in.preload.UniformIndependent(seed, 0)

	rng := rand.New(rand.NewSource(int64(seed)))
	seen := map[string]bool{}
	add := func(kind int, url string, vars []int, mi bool) {
		if seen[url] {
			return
		}
		seen[url] = true
		in.kinds[kind] = append(in.kinds[kind], len(in.urls))
		in.urls, in.vars, in.isMI = append(in.urls, url), append(in.vars, vars), append(in.isMI, mi)
	}
	// Every one-variable marginal, then pair marginals and MI pairs in
	// equal numbers up to the query budget; the reader picks each kind a
	// third of the time.
	for v := 0; v < shape.n; v++ {
		add(0, fmt.Sprintf("/v1/marginal?vars=%d", v), []int{v}, false)
	}
	if shape.n*(shape.n-1)/2 < (shape.queries-shape.n)/2 {
		return nil, fmt.Errorf("%d variables cannot give %d distinct queries", shape.n, shape.queries)
	}
	for len(in.urls) < shape.queries {
		i, j := rng.Intn(shape.n), rng.Intn(shape.n)
		if i == j {
			continue
		}
		if len(in.kinds[1]) <= len(in.kinds[2]) {
			add(1, fmt.Sprintf("/v1/marginal?vars=%d,%d", i, j), []int{i, j}, false)
		} else {
			add(2, fmt.Sprintf("/v1/mi?i=%d&j=%d", i, j), []int{i, j}, true)
		}
	}

	nb := int(seconds.Seconds() * shape.rate)
	for b := 0; b < nb; b++ {
		rows := make([][]uint8, shape.batch)
		for k := range rows {
			row := make([]uint8, shape.n)
			for v := range row {
				row[v] = uint8(rng.Intn(shape.r))
			}
			rows[k] = row
		}
		body, err := json.Marshal(map[string]any{"rows": rows})
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, rows)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// serveEnv is one running server: bnserve's stack on a loopback listener
// with the production refresh loop (Server.Run, woken by each ingest).
type serveEnv struct {
	srv     *serve.Server
	httpSrv *http.Server
	base    string
	addr    string
	stopRun context.CancelFunc
	runErr  chan error
}

func startServe(ctx context.Context, in *serveInputs, reg *obs.Registry) (*serveEnv, error) {
	card := make([]int, in.shape.n)
	for i := range card {
		card[i] = in.shape.r
	}
	codec, err := encoding.NewCodec(card)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(ctx, serveConfig(codec, reg))
	if err != nil {
		return nil, err
	}
	rows := make([][]uint8, in.preload.NumSamples())
	for i := range rows {
		rows[i] = in.preload.Row(i)
	}
	if err := srv.Manager().Ingest(rows); err != nil {
		return nil, err
	}
	if _, err := srv.Manager().Refresh(ctx); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{srv: srv, httpSrv: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), addr: ln.Addr().String(), runErr: make(chan error, 1)}
	go e.httpSrv.Serve(ln)
	runCtx, stop := context.WithCancel(ctx)
	e.stopRun = stop
	go func() { e.runErr <- srv.Run(runCtx) }()
	return e, nil
}

// stop ends the refresh loop, waits for it, and shuts the HTTP server down.
func (e *serveEnv) stop() error {
	e.stopRun()
	runErr := <-e.runErr
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return runErr
}

// servedBody is the first response body seen for one query at one epoch,
// with the number of ingest batches its m includes.
type servedBody struct {
	query, batches int
	body           []byte
}

// servePhase is what one measured phase observed.
type servePhase struct {
	elapsed   time.Duration
	readLat   []time.Duration
	readFails int
	ingest    openLoopResult
	ackAt     []time.Time // client receipt of each acked batch's ack, in ack order
	seenAt    []time.Time // first read whose m includes batch k
	bodies    map[uint64]*servedBody
	wrong     error // first wrong answer; any fails the run
}

// runServePhase drives one reader (closed loop over the query set) and one
// writer (open loop at the fixed ingest rate) for d.
func runServePhase(ctx context.Context, e *serveEnv, in *serveInputs, seed uint64, d time.Duration, tr *tracer) *servePhase {
	ph := &servePhase{
		readLat: make([]time.Duration, 0, int(d.Seconds()*float64(in.shape.maxReadsS))),
		bodies:  map[uint64]*servedBody{},
	}
	writer := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer writer.CloseIdleConnections()
	reqs := make([][]byte, len(in.urls))
	for q, u := range in.urls {
		reqs[q] = getRequest(u)
	}
	reader, err := dialGet(e.addr)
	if err != nil {
		ph.wrong = err
		return ph
	}
	defer func() { reader.close() }()
	interval := time.Duration(float64(time.Second) / in.shape.rate)
	nb := int(d.Seconds() * in.shape.rate)
	if nb > len(in.bodies) {
		nb = len(in.bodies)
	}
	start := time.Now()
	deadline := start.Add(d)

	// The writer records into its own tracer; its spans are merged in
	// once both loops have returned.
	wtr := tr.fork()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.ingest = openLoop(ctx, start.Add(interval/2), interval, nb, func(i int) error {
			sp := wtr.begin("ingest", 1<<30+i, -1)
			defer wtr.end(sp)
			resp, err := writer.Post(e.base+"/v1/ingest", "application/json", bytes.NewReader(in.bodies[i]))
			if err != nil {
				return err
			}
			var ack struct {
				Data struct {
					Accepted int `json:"accepted"`
				} `json:"data"`
			}
			err = json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			switch {
			case err != nil:
				return err
			case resp.StatusCode != http.StatusOK:
				return fmt.Errorf("ingest: HTTP %d", resp.StatusCode)
			case ack.Data.Accepted != in.shape.batch:
				return fmt.Errorf("ingest: %d of %d rows accepted", ack.Data.Accepted, in.shape.batch)
			}
			ph.ackAt = append(ph.ackAt, time.Now())
			return nil
		})
	}()

	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	var lastEpoch uint64
	seen := 0
	wrong := func(format string, args ...any) {
		if ph.wrong == nil {
			ph.wrong = fmt.Errorf(format, args...)
		}
	}
	for op := 0; time.Now().Before(deadline) && ctx.Err() == nil; op++ {
		kind := in.kinds[rng.Intn(3)]
		q := kind[rng.Intn(len(kind))]
		sp := tr.begin("op", op, -1)
		t0 := time.Now()
		status, body, err := reader.do(reqs[q], readTimeout)
		t1 := time.Now()
		tr.end(sp)
		if err != nil {
			// The connection's state is unknown: start a fresh one.
			ph.readFails++
			reader.close()
			if reader, err = dialGet(e.addr); err != nil {
				ph.wrong = err
				break
			}
			continue
		}
		if status != http.StatusOK {
			ph.readFails++
			continue
		}
		ph.readLat = append(ph.readLat, t1.Sub(t0))

		epoch, m, ok := parseEpochM(body)
		if !ok {
			wrong("unparseable response %q", body)
			continue
		}
		if epoch < lastEpoch {
			wrong("epoch went back from %d to %d", lastEpoch, epoch)
		}
		lastEpoch = epoch
		added := m - uint64(in.shape.m)
		if m < uint64(in.shape.m) || added%uint64(in.shape.batch) != 0 {
			wrong("m=%d is not the preload plus whole batches", m)
			continue
		}
		k := int(added / uint64(in.shape.batch))
		key := uint64(q)<<32 | epoch
		if sb, ok := ph.bodies[key]; !ok {
			ph.bodies[key] = &servedBody{query: q, batches: k, body: bytes.Clone(body)}
		} else if !bytes.Equal(sb.body, body) {
			wrong("query %s answered differently within epoch %d", in.urls[q], epoch)
		}
		for ; seen < k; seen++ {
			ph.seenAt = append(ph.seenAt, t1)
		}
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	tr.merge(wtr)
	return ph
}

// parseEpochM reads the epoch and m every /v1/marginal and /v1/mi body
// starts with: {"data":{"epoch":E,"m":M,...
func parseEpochM(b []byte) (epoch, m uint64, ok bool) {
	rest, found := bytes.CutPrefix(b, []byte(`{"data":{"epoch":`))
	if !found {
		return 0, 0, false
	}
	i := bytes.IndexByte(rest, ',')
	if i < 0 {
		return 0, 0, false
	}
	epoch, err := strconv.ParseUint(string(rest[:i]), 10, 64)
	if err != nil {
		return 0, 0, false
	}
	rest, found = bytes.CutPrefix(rest[i+1:], []byte(`"m":`))
	if !found {
		return 0, 0, false
	}
	if i = bytes.IndexByte(rest, ','); i < 0 {
		return 0, 0, false
	}
	m, err = strconv.ParseUint(string(rest[:i]), 10, 64)
	return epoch, m, err == nil
}

// openLoopResult is an open-loop generator's record: each send's latency
// counted from when it was due (so a stall also charges the sends queued
// behind it) and how late the generator started it.
type openLoopResult struct {
	latency []time.Duration // of successful sends
	late    []time.Duration // of every send
	failed  int
}

// openLoop starts send(i) at first + i·interval, or as soon as the previous
// send returns when that is later.
func openLoop(ctx context.Context, first time.Time, interval time.Duration, n int, send func(i int) error) openLoopResult {
	var r openLoopResult
	timer := time.NewTimer(0)
	<-timer.C
	defer timer.Stop()
	for i := 0; i < n; i++ {
		due := first.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return r
			case <-timer.C:
			}
		}
		r.late = append(r.late, time.Since(due))
		if err := send(i); err != nil {
			r.failed++
			continue
		}
		r.latency = append(r.latency, time.Since(due))
	}
	return r
}

// checkBodies verifies every distinct (query, epoch) body against counts
// taken straight from the rows the server had been sent by then: the
// preload plus the first k acked batches.
func checkBodies(in *serveInputs, bodies map[uint64]*servedBody) error {
	byQuery := make([][]*servedBody, len(in.urls))
	for _, sb := range bodies {
		byQuery[sb.query] = append(byQuery[sb.query], sb)
	}
	r := in.shape.r
	for q, list := range byQuery {
		slices.SortFunc(list, func(a, b *servedBody) int { return a.batches - b.batches })
		vars := in.vars[q]
		counts := make([]uint64, pow(r, len(vars)))
		add := func(row []uint8) {
			idx := 0
			for _, v := range vars {
				idx = idx*r + int(row[v])
			}
			counts[idx]++
		}
		for i := 0; i < in.preload.NumSamples(); i++ {
			add(in.preload.Row(i))
		}
		k := 0
		for _, sb := range list {
			for ; k < sb.batches; k++ {
				for _, row := range in.batches[k] {
					add(row)
				}
			}
			m := uint64(in.shape.m + k*in.shape.batch)
			if err := checkBody(sb.body, in.isMI[q], vars, r, counts, m); err != nil {
				return fmt.Errorf("%s after %d batches: %w", in.urls[q], k, err)
			}
		}
	}
	return nil
}

func checkBody(body []byte, isMI bool, vars []int, r int, want []uint64, m uint64) error {
	var env struct {
		Data struct {
			M      uint64    `json:"m"`
			Vars   []int     `json:"vars"`
			Counts []uint64  `json:"counts"`
			Probs  []float64 `json:"probs"`
			MIBits float64   `json:"mi_bits"`
			G      float64   `json:"g"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	d := env.Data
	if d.M != m || !slices.Equal(d.Counts, want) {
		return fmt.Errorf("m=%d counts=%v, want m=%d counts=%v", d.M, d.Counts, m, want)
	}
	if isMI {
		if d.MIBits != stats.MutualInfoCounts(want, r, r) || d.G != stats.GStatistic(want, r, r) {
			return fmt.Errorf("mi_bits=%v g=%v do not match the counts", d.MIBits, d.G)
		}
		return nil
	}
	if !slices.Equal(d.Vars, vars) || len(d.Probs) != len(want) {
		return fmt.Errorf("vars=%v probs=%v", d.Vars, d.Probs)
	}
	for k, c := range want {
		if d.Probs[k] != float64(c)/float64(m) {
			return fmt.Errorf("probs[%d]=%v, want %v", k, d.Probs[k], float64(c)/float64(m))
		}
	}
	return nil
}

// checkFinal publishes whatever is pending and checks the served table is
// identical to a single-threaded build over the preload plus every acked
// batch.
func checkFinal(ctx context.Context, e *serveEnv, in *serveInputs, acked int) error {
	mgr := e.srv.Manager()
	if _, err := mgr.Refresh(ctx); err != nil {
		return err
	}
	total := in.shape.m + acked*in.shape.batch
	all := dataset.NewUniformCard(total, in.shape.n, in.shape.r)
	for i := 0; i < in.shape.m; i++ {
		for v, s := range in.preload.Row(i) {
			all.Set(i, v, s)
		}
	}
	for b := 0; b < acked; b++ {
		for k, row := range in.batches[b] {
			for v, s := range row {
				all.Set(in.shape.m+b*in.shape.batch+k, v, s)
			}
		}
	}
	ref, err := core.BuildSequential(all)
	if err != nil {
		return err
	}
	snap := mgr.Acquire()
	defer snap.Release()
	if !snap.Table().Equal(ref) {
		return fmt.Errorf("final epoch %d (m=%d) differs from a batch build over %d rows",
			snap.Epoch(), snap.Table().NumSamples(), total)
	}
	return nil
}

func pow(b, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= b
	}
	return p
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// verifyPhase runs every correctness check of one phase and counts its
// operations. A wrong answer is an error; a failed request is only
// counted.
func verifyPhase(ctx context.Context, e *serveEnv, in *serveInputs, ph *servePhase) error {
	if ph.wrong != nil {
		return ph.wrong
	}
	if err := checkBodies(in, ph.bodies); err != nil {
		return err
	}
	return checkFinal(ctx, e, in, len(ph.ackAt))
}

// phaseSummary turns one phase into the serve-mix metrics.
func phaseSummary(in *serveInputs, ph *servePhase) (map[string]float64, map[string]any) {
	lat := sortedCopy(durMS(ph.readLat))
	vals := map[string]float64{
		"op_p50_ms": median(lat),
	}
	var visible []float64
	for k := 0; k < len(ph.seenAt) && k < len(ph.ackAt); k++ {
		visible = append(visible, ms(ph.seenAt[k].Sub(ph.ackAt[k])))
	}
	late := sortedCopy(durMS(ph.ingest.late))
	det := map[string]any{
		"reads":                 len(lat),
		"reads_per_s":           float64(len(lat)) / ph.elapsed.Seconds(),
		"read_failures":         ph.readFails,
		"ingests":               len(ph.ingest.latency),
		"ingest_failures":       ph.ingest.failed,
		"ingest_p50_ms":         median(durMS(ph.ingest.latency)),
		"visible_p50_ms":        median(visible),
		"visible_batches":       len(visible),
		"generator_late_p50_ms": median(late),
		"generator_late_max_ms": percentile(late, 100),
		"distinct_bodies":       len(ph.bodies),
	}
	if p, ok := tailPercentile(len(lat), in.shape.tailPct); ok {
		v := percentile(lat, p)
		vals["serve.read_tail_ms"] = v
		det["read_tail_ms"] = v
		det["read_tail_pct"] = p
		det["read_tail_beyond"] = samplesBeyond(len(lat), p)
	}
	vals["serve.ingest_p50_ms"] = det["ingest_p50_ms"].(float64)
	vals["serve.visible_p50_ms"] = det["visible_p50_ms"].(float64)
	vals["serve.generator_late_p99_ms"] = percentile(late, 99)
	return vals, det
}

func runServe(ctx context.Context, c config) (*outcome, error) {
	shape := serveFull
	if c.tiny {
		shape = serveTiny
	}
	var in *serveInputs
	var env *serveEnv
	setupS, err := timeSetups(c.setups, func() error {
		var err error
		if in, err = makeServeInputs(shape, c.seed, c.seconds); err != nil {
			return err
		}
		env, err = startServe(ctx, in, nil)
		return err
	}, func() error {
		err := env.stop()
		in, env = nil, nil
		return err
	})
	if err != nil {
		if env != nil {
			_ = env.stop() // the set-up error is the one to report
		}
		return nil, err
	}

	d := c.seconds
	if c.trace {
		d /= 2
	}
	ph := runServePhase(ctx, env, in, c.seed, d, nil)
	rss, rssErr := peakRSSMiB()
	verr := verifyPhase(ctx, env, in, ph)
	if err := env.stop(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	out := &outcome{correct: verr == nil}
	if verr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve-mix:", verr)
	}
	vals, det := phaseSummary(in, ph)
	out.attempted = len(ph.readLat) + ph.readFails + len(ph.ingest.late)
	out.failed = ph.readFails + ph.ingest.failed
	out.endToEnd = map[string]float64{
		"op_p50_ms":   vals["op_p50_ms"],
		"setup_s":     setupS,
		"peak_rss_mb": rss,
	}
	out.details = det
	if !c.trace {
		return out, nil
	}
	return out, traceServe(ctx, c, in, out, ph)
}

// traceServe runs the traced half of a serve-mix trace run on a fresh
// server whose obs.Registry is on, and derives the serve layer's split
// from the program's own histograms and counters.
func traceServe(ctx context.Context, c config, in *serveInputs, out *outcome, untraced *servePhase) error {
	reg := obs.NewRegistry()
	env, err := startServe(ctx, in, reg)
	if err != nil {
		return err
	}
	counter := func(name string, labels ...string) float64 { return float64(reg.Counter(name, labels...).Value()) }
	epochs0 := counter("serve_epochs_published_total")
	hits0, misses0 := counter("core_marg_cache_hits_total"), counter("core_marg_cache_misses_total")
	batches0, joined0 := counter("serve_coalesce_batches_total"), counter("serve_coalesced_requests_total")
	rejected0 := counter("serve_admission_rejected_total")
	passes0, entries0 := scanTotals(reg)

	tr := newTracer(int(c.seconds.Seconds()/2*float64(in.shape.maxReadsS)) + 1024)
	var md memDelta
	md.start()
	ph := runServePhase(ctx, env, in, c.seed, c.seconds/2, tr)
	allocMiB, gcs := md.stop()

	reads := float64(len(ph.readLat))
	epochs := counter("serve_epochs_published_total") - epochs0
	hits, misses := counter("core_marg_cache_hits_total")-hits0, counter("core_marg_cache_misses_total")-misses0
	batches, joined := counter("serve_coalesce_batches_total")-batches0, counter("serve_coalesced_requests_total")-joined0
	passes1, entries1 := scanTotals(reg)
	marg, mi := reg.Histogram("serve_request_seconds", "endpoint", "marginal"), reg.Histogram("serve_request_seconds", "endpoint", "mi")
	serverMeanUS := us(marg.Sum()+mi.Sum()) / float64(marg.Count()+mi.Count())

	verr := verifyPhase(ctx, env, in, ph)
	if err := env.stop(); err != nil {
		return err
	}
	if verr != nil {
		out.correct = false
		fmt.Fprintln(os.Stderr, "perfbench: serve-mix (traced):", verr)
	}
	out.attempted += len(ph.readLat) + ph.readFails + len(ph.ingest.late)
	out.failed += ph.readFails + ph.ingest.failed

	vals, _ := phaseSummary(in, ph)
	pl := map[string]float64{
		"serve.request_read_p50_us":            us(histMedian(marg, mi)),
		"serve.http_overhead_us":               us(meanDur(ph.readLat)) - serverMeanUS,
		"serve.request_ingest_p50_us":          us(histMedian(reg.Histogram("serve_request_seconds", "endpoint", "ingest"))),
		"serve.refresh_p50_ms":                 ms(histMedian(reg.Histogram("serve_refresh_seconds"))),
		"serve.epochs":                         epochs,
		"core.refreeze.drained_keys_per_epoch": reg.Gauge("serve_freeze_drained_keys").Value(),
		"core.margcache.hit_rate":              ratio(hits, hits+misses),
		"core.scans_per_read":                  ratio(passes1-passes0, reads),
		"core.scan_passes":                     ratio(passes1-passes0, reads),
		"core.scan_entries":                    ratio(entries1-entries0, reads),
		"serve.coalesce.batch_size":            ratio(joined, batches),
		"serve.admission.rejected":             counter("serve_admission_rejected_total") - rejected0,
		"serve.read_tail_ms":                   vals["serve.read_tail_ms"],
		"serve.ingest_p50_ms":                  vals["serve.ingest_p50_ms"],
		"serve.visible_p50_ms":                 vals["serve.visible_p50_ms"],
		"serve.generator_late_p99_ms":          vals["serve.generator_late_p99_ms"],
		"runtime.alloc_mb_per_op":              allocMiB / reads,
		"runtime.gc_cycles_per_op":             gcs / reads,
		"unattributed_ms":                      ms(meanDur(ph.readLat)) - serverMeanUS/1e3,
	}
	return finishTrace(c, "serve-mix", out, untraced.readLat, ph.readLat, tr, pl)
}

// histMedian is the median of the observations of hs taken together,
// interpolated linearly within the bucket that holds it: the histograms
// keep only power-of-two bucket counts, and a bucket bound would read the
// same on every run.
func histMedian(hs ...*obs.Histogram) time.Duration {
	var n uint64
	for _, h := range hs {
		n += h.Count()
	}
	if n == 0 {
		return 0
	}
	rank := float64(n) / 2
	lo, below := time.Duration(0), uint64(0)
	for hi := time.Microsecond; ; hi *= 2 {
		var upTo uint64
		for _, h := range hs {
			upTo += atMost(h, hi)
		}
		if float64(upTo) >= rank || upTo == n {
			return lo + time.Duration((rank-float64(below))/float64(upTo-below)*float64(hi-lo))
		}
		lo, below = hi, upTo
	}
}

// atMost counts h's observations in buckets whose upper bound is at most
// bound, by searching the largest rank whose quantile stays within it.
func atMost(h *obs.Histogram, bound time.Duration) uint64 {
	n := h.Count()
	lo, hi := uint64(0), n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if h.Quantile((float64(mid)-0.5)/float64(n)) <= bound {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
