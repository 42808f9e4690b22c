// Command perfbench is the repository's end-to-end benchmark. It drives the
// program's public API in-process on one of three workloads, checks every
// output against an independent reference outside the timed region, and
// prints its metrics as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload learn-dag40 --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it also times its own calls into each layer (core,
// structure, serve), reads the program's obs.Registry counters, writes the
// spans to .bench_out/, and reports per-layer metrics instead. See
// README.md in this directory for the workloads and what each metric is
// expected to move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runDeadline keeps a run under three minutes even when a layer hangs:
// the context is cancelled and the run fails.
const runDeadline = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits names the metrics an untraced run reports, on every
// workload. What "op" means differs per workload (see README.md).
var endToEndUnits = map[string]string{
	"op_p50_ms":   "ms",
	"setup_s":     "s",
	"peak_rss_mb": "MiB",
}

// perLayerUnits names the metrics a traced run reports, on every workload.
// A layer a workload does not enter reports 0.
var perLayerUnits = map[string]string{
	"core.build_ms":                        "ms",
	"core.build.stage1_ms":                 "ms",
	"core.build.stage2_ms":                 "ms",
	"core.build.foreign_keys":              "count",
	"core.build.batch_flushes":             "count",
	"core.build.p1_ms":                     "ms",
	"core.build.scaling_x":                 "x",
	"core.freeze_ms":                       "ms",
	"core.freeze.entries":                  "count",
	"core.allpairs_mi_ms":                  "ms",
	"core.mi.computed_gb_per_s":            "GB/s",
	"structure.draft_ms":                   "ms",
	"structure.thicken_ms":                 "ms",
	"structure.thin_ms":                    "ms",
	"structure.other_ms":                   "ms",
	"structure.ci_tests":                   "count",
	"core.scan_passes":                     "count",
	"core.scan_entries":                    "count",
	"serve.request_read_p50_us":            "us",
	"serve.http_overhead_us":               "us",
	"serve.request_ingest_p50_us":          "us",
	"serve.refresh_p50_ms":                 "ms",
	"serve.epochs":                         "count",
	"core.refreeze.drained_keys_per_epoch": "count",
	"core.margcache.hit_rate":              "ratio",
	"core.scans_per_read":                  "ratio",
	"serve.coalesce.batch_size":            "count",
	"serve.admission.rejected":             "count",
	"serve.read_tail_ms":                   "ms",
	"serve.ingest_p50_ms":                  "ms",
	"serve.visible_p50_ms":                 "ms",
	"serve.generator_late_p99_ms":          "ms",
	"runtime.alloc_mb_per_op":              "MiB",
	"runtime.gc_cycles_per_op":             "count",
	"unattributed_ms":                      "ms",
	"trace.overhead_pct":                   "%",
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	outDir  string // where a traced run writes its spans
	setups  int    // set-ups timed per run; setup_s is their median
	tiny    bool   // shrink every input (tests only)
	host    fingerprint
}

// outcome is what a workload measured. details are informational values
// printed on the line before the result.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	endToEnd  map[string]float64
	perLayer  map[string]float64
	details   map[string]any
}

type workload struct {
	name string
	run  func(ctx context.Context, c config) (*outcome, error)
}

// workloads are described, with the reason for each, in README.md and
// BENCHMARK.json.
var workloads = []workload{
	{"learn-dag40", runLearn},
	{"init-rows4m", runInit},
	{"serve-mix", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fingerprint identifies the host and build a result came from.
type fingerprint struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    "unknown",
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.VCSRevision = s.Value
			}
		}
	}
	return fp
}

// header stamps every output with where and how it was produced.
type header struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Host     fingerprint `json:"host"`
}

func (c config) header(name string) header {
	return header{Workload: name, Seed: c.seed, Seconds: c.seconds.Seconds(), Trace: c.trace, Host: c.host}
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// timeSetups runs setup until n of them ran with no more host steal than
// stealLimit (or 2n have run, keeping the n least stolen) and returns
// their median duration in seconds. Before every set-up but the first,
// teardown releases the previous one and garbage is collected, so each
// starts from the same heap.
func timeSetups(n int, setup, teardown func() error) (float64, error) {
	var all []stolen
	clean := 0
	for i := 0; clean < n && i < 2*n; i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		s, err := timeStolen(setup)
		if err != nil {
			return 0, err
		}
		all = append(all, s)
		if s.steal <= stealLimit {
			clean++
		}
	}
	return median(durMS(leastStolen(all, n))) / 1e3, nil
}

// stealLimit is the share of the machine's CPU capacity the hypervisor may
// take while an op runs before the op is run again. On a shared host the
// other tenants' load comes and goes over minutes; an op that loses more
// than this measures them rather than the program (a 14% steal slowed a
// learn by 35%, as its workers wait for each other at every barrier).
const stealLimit = 0.02

// hostSteal returns the CPU time the hypervisor has taken from this
// machine so far, summed over its CPUs (the steal column of /proc/stat, in
// 10 ms ticks). It returns 0 where the kernel does not report it.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stolen is one timed piece of work and the share of the machine's CPU
// capacity the hypervisor took while it ran.
type stolen struct {
	d     time.Duration
	steal float64
}

func timeStolen(fn func() error) (stolen, error) {
	steal0 := hostSteal()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	return stolen{d, float64(hostSteal()-steal0) / (float64(d) * float64(runtime.NumCPU()))}, err
}

// leastStolen returns the samples within stealLimit, or the n least stolen
// when fewer than n are, as durations.
func leastStolen(all []stolen, n int) []time.Duration {
	var kept []stolen
	for _, s := range all {
		if s.steal <= stealLimit {
			kept = append(kept, s)
		}
	}
	if len(kept) < n {
		kept = append([]stolen(nil), all...)
		sort.SliceStable(kept, func(a, b int) bool { return kept[a].steal < kept[b].steal })
		kept = kept[:min(n, len(kept))]
	}
	durs := make([]time.Duration, len(kept))
	for i, s := range kept {
		durs[i] = s.d
	}
	return durs
}

// opRun is what timedOps measured.
type opRun struct {
	durs []time.Duration // the ops the metrics are taken from
	ops  int             // ops run, kept or not
}

// timedOps runs op after a garbage collection each time, so every op
// starts from a collected heap the way a fresh CLI run does, until the
// summed time of the kept ops would pass budget (and at least minOps are
// kept). An op during which the hypervisor took more than stealLimit of the
// machine is discarded and run again, for at most 1.5 times the budget in
// total; if fewer than minOps were clean by then, the minOps least stolen
// are kept. after runs untimed once each op returns, kept or not: the
// per-op correctness check.
func timedOps(ctx context.Context, budget time.Duration, minOps int, op func(i int) error, after func(i int) error) (opRun, error) {
	var all []stolen
	var total, cleanSum time.Duration
	clean := 0
	for i := 0; ; i++ {
		if len(all) >= minOps {
			last := all[len(all)-1].d
			if (clean >= minOps && cleanSum+last > budget) || total+last > budget*3/2 {
				break
			}
		}
		if err := ctx.Err(); err != nil {
			return opRun{}, context.Cause(ctx)
		}
		runtime.GC()
		s, err := timeStolen(func() error { return op(i) })
		if err != nil {
			return opRun{}, err
		}
		all = append(all, s)
		total += s.d
		if s.steal <= stealLimit {
			clean++
			cleanSum += s.d
		}
		if err := after(i); err != nil {
			return opRun{}, err
		}
	}
	return opRun{durs: leastStolen(all, minOps), ops: len(all)}, nil
}

// opEndToEnd fills the end-to-end metrics of the op-loop workloads and
// notes how the ops were taken.
func opEndToEnd(r opRun, setupS float64, details map[string]any) (map[string]float64, error) {
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	details["ops"], details["ops_kept"] = r.ops, len(r.durs)
	return map[string]float64{
		"op_p50_ms":   median(durMS(r.durs)),
		"setup_s":     setupS,
		"peak_rss_mb": rss,
	}, nil
}

// memDelta measures allocation and GC cycles across a span of work.
type memDelta struct{ before runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop() (allocMiB, gcCycles float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20), float64(after.NumGC - m.before.NumGC)
}

// toMetrics attaches units to a workload's values. A declared metric the
// workload did not report is 0: that workload does not enter the layer.
func toMetrics(vals map[string]float64, units map[string]string) (map[string]metric, error) {
	for name := range vals {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("workload reported undeclared metric %s", name)
		}
	}
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v := vals[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		out[name] = metric{v, unit}
	}
	return out, nil
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: learn-dag40, init-rows4m or serve-mix")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "measured time per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatal(fmt.Errorf("unknown --workload %q (want one of %s)", *name, strings.Join(names, ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive, got %v", *seconds))
	}
	c := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		outDir:  ".bench_out",
		setups:  5,
		host:    hostFingerprint(),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	out, err := w.run(ctx, c)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	res, err := report(w.name, c, out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(res)
	if !out.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: outputs did not match the reference\n", w.name)
		os.Exit(1)
	}
}

// report renders the details line and the result line.
func report(name string, c config, out *outcome) (string, error) {
	vals, units := out.endToEnd, endToEndUnits
	if c.trace {
		vals, units = out.perLayer, perLayerUnits
	}
	m, err := toMetrics(vals, units)
	if err != nil {
		return "", err
	}
	detail, err := json.Marshal(struct {
		Header  header         `json:"header"`
		Details map[string]any `json:"details"`
	}{c.header(name), out.details})
	if err != nil {
		return "", err
	}
	last, err := json.Marshal(result{out.correct, out.attempted, out.failed, m})
	if err != nil {
		return "", err
	}
	return string(detail) + "\n" + string(last), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
