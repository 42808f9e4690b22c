package waitfreebn

// CLI integration tests: build the real binaries and drive the documented
// pipeline datagen → bnlearn → bninfer and datagen → bntable end to end.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTools compiles the command binaries once into a temp dir.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	return out
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	tools := buildTools(t, "datagen", "bnlearn", "bntable", "bninfer")
	work := t.TempDir()
	csv := filepath.Join(work, "data.csv")
	model := filepath.Join(work, "model.json")
	table := filepath.Join(work, "table.wfbn")

	// datagen: sample the cancer network.
	run(t, tools["datagen"], "-net", "cancer", "-m", "120000", "-seed", "5", "-out", csv)
	if fi, err := os.Stat(csv); err != nil || fi.Size() == 0 {
		t.Fatalf("datagen produced no data: %v", err)
	}

	// bnlearn: constraint-based with G-test, emit a fitted model.
	out := run(t, tools["bnlearn"], "-in", csv, "-gtest", "-emit", model)
	if !strings.Contains(out, "learned skeleton") {
		t.Fatalf("bnlearn output unexpected:\n%s", out)
	}
	// The three strong cancer edges must appear (x1-x2, x2-x3, x2-x4).
	for _, edge := range []string{"x2", "x3"} {
		if !strings.Contains(out, edge) {
			t.Fatalf("bnlearn missed %s:\n%s", edge, out)
		}
	}

	// bnlearn with hill climbing on the same data.
	hc := run(t, tools["bnlearn"], "-in", csv, "-algo", "hillclimb")
	if !strings.Contains(hc, "hill-climbed DAG") {
		t.Fatalf("hillclimb output unexpected:\n%s", hc)
	}

	// bntable: build a serialized table from the CSV, inspect and query it.
	// -json emits the build report (table, stats) as machine-readable output.
	built := run(t, tools["bntable"], "build", "-in", csv, "-card", "2,2,2,2,2", "-out", table, "-json")
	var report struct {
		Table struct {
			Samples      uint64 `json:"samples"`
			DistinctKeys int    `json:"distinct_keys"`
		} `json:"table"`
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal([]byte(built), &report); err != nil {
		t.Fatalf("bntable build -json not parseable: %v\n%s", err, built)
	}
	if report.Table.Samples != 120000 || report.Table.DistinctKeys == 0 {
		t.Fatalf("bntable build -json report unexpected:\n%s", built)
	}
	if _, ok := report.Stats["foreign_keys"]; !ok {
		t.Fatalf("bntable build -json report lacks construction stats:\n%s", built)
	}
	info := run(t, tools["bntable"], "info", "-in", table)
	if !strings.Contains(info, "samples:       120000") {
		t.Fatalf("bntable info unexpected:\n%s", info)
	}
	marg := run(t, tools["bntable"], "marginal", "-in", table, "-vars", "2")
	if !strings.Contains(marg, "P(x2=0)") || !strings.Contains(marg, "P(x2=1)") {
		t.Fatalf("bntable marginal unexpected:\n%s", marg)
	}
	mi := run(t, tools["bntable"], "mi", "-in", table, "-topk", "3")
	if !strings.Contains(mi, "I(x") {
		t.Fatalf("bntable mi unexpected:\n%s", mi)
	}

	// bninfer: query the emitted model with both engines; outputs agree.
	ve := run(t, tools["bninfer"], "-model", model, "-query", "2", "-evidence", "3=1")
	jt := run(t, tools["bninfer"], "-model", model, "-query", "2", "-evidence", "3=1", "-engine", "jtree")
	if !strings.Contains(ve, "x2=1:") || !strings.Contains(jt, "x2=1:") {
		t.Fatalf("bninfer output unexpected:\nve: %s\njtree: %s", ve, jt)
	}
	veLine := lineContaining(ve, "x2=1:")
	jtLine := lineContaining(jt, "x2=1:")
	if veLine != jtLine {
		t.Fatalf("engines disagree: %q vs %q", veLine, jtLine)
	}

	// bninfer MPE honors evidence.
	mpe := run(t, tools["bninfer"], "-model", model, "-mpe", "-evidence", "2=1")
	if !strings.Contains(mpe, "x2 = 1  (evidence)") {
		t.Fatalf("mpe output unexpected:\n%s", mpe)
	}
}

// TestCLIGTestAlpha is the regression test for the -gtest -alpha panic:
// any significance level in (0, 0.5] must learn cleanly (the critical
// values used to be a two-entry lookup table that panicked on everything
// else), an out-of-range alpha must be a one-line configuration error
// rather than a stack dump, and -phase-par must reproduce the serial
// skeleton bit for bit.
func TestCLIGTestAlpha(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	tools := buildTools(t, "datagen", "bnlearn")
	work := t.TempDir()
	csv := filepath.Join(work, "data.csv")
	run(t, tools["datagen"], "-net", "cancer", "-m", "60000", "-seed", "7", "-out", csv)

	serial := run(t, tools["bnlearn"], "-in", csv, "-gtest", "-alpha", "0.001")
	if !strings.Contains(serial, "learned skeleton") {
		t.Fatalf("bnlearn -gtest -alpha 0.001 output unexpected:\n%s", serial)
	}

	// Same data, same test, wavefront scheduler: identical skeleton, and
	// the wavefront/cache summary lines appear.
	par := run(t, tools["bnlearn"], "-in", csv, "-gtest", "-alpha", "0.001", "-phase-par")
	if got, want := edgeLines(par), edgeLines(serial); got != want {
		t.Errorf("-phase-par skeleton differs from serial:\nserial:\n%s\nparallel:\n%s", want, got)
	}
	if !strings.Contains(par, "wavefront:") || !strings.Contains(par, "marg-cache:") {
		t.Errorf("-phase-par output lacks wavefront/cache summary:\n%s", par)
	}

	// alpha outside (0, 0.5] is rejected up front with a clean diagnostic.
	cmd := exec.Command(tools["bnlearn"], "-in", csv, "-gtest", "-alpha", "0.7")
	msg, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("bnlearn -gtest -alpha 0.7 succeeded, want configuration error:\n%s", msg)
	}
	out := string(msg)
	if !strings.Contains(out, "alpha") {
		t.Errorf("error does not mention alpha:\n%s", out)
	}
	if strings.Contains(out, "internal error") || strings.Contains(out, "goroutine") {
		t.Errorf("bad alpha produced a panic path, want a plain error:\n%s", out)
	}
}

// edgeLines extracts the learned-skeleton edge lines ("x1 -- x2   (I = …)"),
// which carry the full edge set, orientations and MI values.
func edgeLines(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "(I = ") {
			b.WriteString(strings.TrimSpace(line) + "\n")
		}
	}
	return b.String()
}

// TestCLIMetricsEndpoint drives the observability acceptance path: an
// instrumented bnbench build serving live Prometheus text and a JSON
// snapshot over -metrics-addr, with per-worker stage timings, queue traffic
// counters and partition occupancy, plus pprof behind -pprof.
func TestCLIMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	tools := buildTools(t, "bnbench")

	cmd := exec.Command(tools["bnbench"],
		"-exp", "build", "-m", "50000", "-n", "8", "-r", "2", "-p", "4",
		"-metrics-addr", "127.0.0.1:0", "-metrics-linger", "30s", "-pprof")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The bound address is announced on stderr before the build starts.
	var addr string
	var seen strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		seen.WriteString(line + "\n")
		if rest, ok := strings.CutPrefix(line, "obs: serving metrics on http://"); ok {
			addr = strings.TrimSuffix(rest, "/metrics")
			break
		}
	}
	if addr == "" {
		t.Fatalf("metrics address never announced; stderr:\n%s", seen.String())
	}
	// Keep the pipe drained, and note when the run is over: bnbench writes
	// its JSON report to stdout, then announces the linger on stderr.
	reported := make(chan struct{})
	go func() {
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "obs: lingering") {
				close(reported)
				break
			}
		}
		io.Copy(io.Discard, stderr)
	}()

	// The builds finish asynchronously (the build experiment sweeps P ×
	// write-batch, so several complete); poll for the partition gauges,
	// which Finalize publishes last — once they exist, every other
	// per-build metric does too.
	base := "http://" + addr
	body := waitForBody(t, base+"/metrics", "core_partition_keys{partition=\"0\"}")
	for _, want := range []string{
		"core_builds_total",
		"core_worker_stage_seconds{stage=\"1\",worker=\"0\"}",
		"core_queue_push_total",
		"core_queue_pop_total",
		"core_stage_seconds_bucket{stage=\"2\",le=\"+Inf\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// The same registry as JSON.
	jsonBody := waitForBody(t, base+"/metrics.json", "core_builds_total")
	var snap struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal([]byte(jsonBody), &snap); err != nil {
		t.Fatalf("/metrics.json not parseable: %v\n%s", err, jsonBody)
	}
	if snap.Counters["core_builds_total"] == 0 {
		t.Errorf("/metrics.json core_builds_total = 0, want >= 1")
	}
	if _, ok := snap.Gauges[`core_worker_stage_seconds{stage="2",worker="3"}`]; !ok {
		t.Errorf("/metrics.json lacks per-worker stage gauges:\n%s", jsonBody)
	}

	// -pprof mounts the standard profile index on the same listener.
	if pprofBody := waitForBody(t, base+"/debug/pprof/", "goroutine"); pprofBody == "" {
		t.Error("pprof endpoint not served")
	}

	// The process itself reports the snapshot on stdout; it is written
	// before the linger, so wait for the linger to begin, then cut it short
	// and collect the report. Wait also joins exec's stdout copier, making
	// the buffer safe to read.
	select {
	case <-reported:
	case <-time.After(60 * time.Second):
		t.Fatal("bnbench -exp build never finished its run")
	}
	cmd.Process.Kill()
	cmd.Wait()
	var out struct {
		Rows []struct {
			Stats map[string]any `json:"stats"`
		} `json:"rows"`
		Obs map[string]any `json:"obs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("bnbench -exp build stdout not parseable: %v\n%s", err, stdout.String())
	}
	if len(out.Rows) == 0 || out.Rows[0].Stats["foreign_keys"] == nil || out.Obs["counters"] == nil {
		t.Fatalf("bnbench -exp build report incomplete:\n%s", stdout.String())
	}
}

// waitForBody polls url until the response contains want (the server may
// still be mid-build on the first requests) and returns the final body.
func waitForBody(t *testing.T, url, want string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			last = string(b)
			if strings.Contains(last, want) {
				return last
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("GET %s never contained %q; last body:\n%s", url, want, last)
	return ""
}

func lineContaining(s, substr string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			return strings.TrimSpace(line)
		}
	}
	return ""
}
