package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"waitfreebn/internal/obs"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		limit float64
		want  float64
		ok    bool
	}{
		{n: 1000, limit: 99.9, want: 99},      // 99.5 leaves 5, 99 leaves 10
		{n: 100_000, limit: 99.9, want: 99.9}, // the limit itself leaves 100
		{n: 100_000, limit: 100, want: 99.99}, // 99.995 leaves 5
		{n: 20, limit: 99.9, want: 50},        // 90 leaves 2
		{n: 19, limit: 99.9, ok: false},       // even the median leaves 9
		{n: 0, limit: 99.9, ok: false},
	} {
		got, ok := tailPercentile(tc.n, tc.limit)
		if tc.want != 0 {
			tc.ok = true
		}
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d, %v) = %v, %v; want %v, %v", tc.n, tc.limit, got, ok, tc.want, tc.ok)
		}
		if ok && samplesBeyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d p=%v leaves %d samples beyond", tc.n, got, samplesBeyond(tc.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 91: 10, 100: 10, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// A send that stalls must charge its wait to the sends queued behind it:
// their latency counts from when they were due, and the lateness of each
// start is reported.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const interval = 20 * time.Millisecond
	first := time.Now().Add(5 * time.Millisecond)
	r := openLoop(context.Background(), first, interval, 4, func(i int) error {
		switch i {
		case 0:
			time.Sleep(3 * interval) // due at 0, returns at 60ms
		case 2:
			return errors.New("refused")
		}
		return nil
	})
	if len(r.late) != 4 || len(r.latency) != 3 || r.failed != 1 {
		t.Fatalf("late=%d latency=%d failed=%d, want 4, 3, 1", len(r.late), len(r.latency), r.failed)
	}
	// Send 1 was due at 20ms and could start only at 60ms.
	if r.late[1] < 35*time.Millisecond {
		t.Errorf("send 1 late by %v, want about 40ms", r.late[1])
	}
	if r.latency[1] < r.late[1] {
		t.Errorf("send 1 latency %v is less than its lateness %v", r.latency[1], r.late[1])
	}
	if r.latency[0] < 3*interval {
		t.Errorf("send 0 latency %v, want at least its %v stall", r.latency[0], 3*interval)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := openLoop(ctx, time.Now().Add(time.Hour), time.Second, 3, func(int) error { return nil })
	if len(r.late) != 0 {
		t.Fatalf("sent %d after cancel", len(r.late))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: [10,50] counted once
		{Name: "c", Parent: 0, Start: 80, End: 120}, // clipped to the parent: [80,100]
		{Name: "d", Parent: 2, Start: 25, End: 35},  // grandchild: only b loses it
		{Name: "e", Parent: -1, Start: 200, End: 210},
	}
	want := []int64{100 - 40 - 20, 20, 30 - 10, 40, 10, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestDeriveClipsToParent(t *testing.T) {
	tr := newTracer(4)
	tr.spans = append(tr.spans, span{Name: "core.build", Parent: -1, Start: 100, End: 200})
	end := tr.derive("stage1", 0, 100, 60*time.Nanosecond)
	end = tr.derive("stage2", 0, end, 60*time.Nanosecond)
	if end != 200 || tr.spans[2].Start != 160 || tr.spans[2].End != 200 {
		t.Fatalf("derived spans %+v, end %d", tr.spans[1:], end)
	}
	if self := selfTimes(tr.spans); self[0] != 0 {
		t.Fatalf("fully covered parent has self time %d", self[0])
	}
}

// A served body that disagrees with the counts taken from the rows must
// fail the check.
func TestServeCheckRejectsWrongAnswer(t *testing.T) {
	in, err := makeServeInputs(serveTiny, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	q := in.kinds[0][0]
	want := make([]uint64, in.shape.r)
	for i := 0; i < in.preload.NumSamples(); i++ {
		want[in.preload.Row(i)[in.vars[q][0]]]++
	}
	enc := func(v any) string { b, _ := json.Marshal(v); return string(b) }
	body := func(counts []uint64) []byte {
		m := uint64(in.shape.m)
		probs := make([]float64, len(counts))
		for k, c := range counts {
			probs[k] = float64(c) / float64(m)
		}
		return []byte(fmt.Sprintf(`{"data":{"epoch":1,"m":%d,"vars":%s,"card":[%d],"counts":%s,"probs":%s}}`,
			m, enc(in.vars[q]), in.shape.r, enc(counts), enc(probs)))
	}
	good := map[uint64]*servedBody{1: {query: q, batches: 0, body: body(want)}}
	if err := checkBodies(in, good); err != nil {
		t.Fatalf("correct body rejected: %v", err)
	}
	if e, m, ok := parseEpochM(good[1].body); !ok || e != 1 || m != uint64(in.shape.m) {
		t.Fatalf("parseEpochM = %d, %d, %v", e, m, ok)
	}
	wrong := slices.Clone(want)
	wrong[0]++
	wrong[1]--
	bad := map[uint64]*servedBody{1: {query: q, batches: 0, body: body(wrong)}}
	if err := checkBodies(in, bad); err == nil {
		t.Fatal("wrong counts accepted")
	}
}

// Every workload runs end to end at a tiny size, untraced and traced,
// passes its own correctness gate and reports every declared metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := config{seed: 5, seconds: 400 * time.Millisecond, trace: trace, outDir: t.TempDir(), setups: 2, tiny: true, host: hostFingerprint()}
			out, err := w.run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !out.correct || out.failed != 0 || out.attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, out.correct, out.attempted, out.failed)
			}
			text, err := report(w.name, c, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(text, "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			units := endToEndUnits
			if trace {
				units = perLayerUnits
			}
			if len(res.Metrics) != len(units) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(units))
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// BENCHMARK.json must describe exactly what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program has %d workloads", names, len(workloads))
	}
	check := func(kind string, list []struct{ Name, Unit string }, units map[string]string) {
		if len(list) != len(units) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(list), len(units))
		}
		for _, m := range list {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the program", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits)
}

func TestHistMedianInterpolatesWithinBucket(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := reg.Histogram("a"), reg.Histogram("b")
	for i := 0; i < 10; i++ {
		a.Observe(3 * time.Microsecond) // bucket (2µs, 4µs]
	}
	if got := histMedian(a); got != 3*time.Microsecond {
		t.Errorf("median of ten 3µs observations = %v, want 3µs", got)
	}
	for i := 0; i < 30; i++ {
		b.Observe(100 * time.Microsecond) // bucket (64µs, 128µs]
	}
	// Rank 20 of 40: 10 observations lie below 64µs, 30 in (64µs, 128µs].
	want := 64*time.Microsecond + 64*time.Microsecond*10/30
	if got := histMedian(a, b); got < want-time.Nanosecond || got > want+time.Nanosecond {
		t.Errorf("merged median = %v, want %v", got, want)
	}
	if got := histMedian(reg.Histogram("empty")); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}
