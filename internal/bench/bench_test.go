package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"waitfreebn/internal/baseline"
	"waitfreebn/internal/core"
)

func smallParams() Params {
	return Params{Seed: 1, Reps: 1, Ps: []int{1, 2}}
}

func TestDefaultPs(t *testing.T) {
	cases := map[int][]int{
		1:  {1},
		2:  {1, 2},
		8:  {1, 2, 4, 8},
		12: {1, 2, 4, 8},
		32: {1, 2, 4, 8, 16, 32},
		0:  {1},
	}
	for maxP, want := range cases {
		got := DefaultPs(maxP)
		if len(got) != len(want) {
			t.Errorf("DefaultPs(%d) = %v, want %v", maxP, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("DefaultPs(%d) = %v, want %v", maxP, got, want)
				break
			}
		}
	}
}

func TestFillSpeedups(t *testing.T) {
	tab := &Table{Series: []Series{{
		Label: "x",
		Points: []Measurement{
			{P: 1, Seconds: 4},
			{P: 2, Seconds: 2},
			{P: 4, Seconds: 1},
		},
	}}}
	tab.FillSpeedups()
	want := []float64{1, 2, 4}
	for i, m := range tab.Series[0].Points {
		if m.Speedup != want[i] {
			t.Errorf("point %d speedup %v, want %v", i, m.Speedup, want[i])
		}
	}
}

func TestFillSpeedupsWithoutP1(t *testing.T) {
	tab := &Table{Series: []Series{{
		Label:  "x",
		Points: []Measurement{{P: 4, Seconds: 3}, {P: 2, Seconds: 6}},
	}}}
	tab.FillSpeedups()
	// Base is the smallest P (2).
	if got := tab.Series[0].Points[0].Speedup; got != 2 {
		t.Errorf("speedup at P=4 relative to P=2 = %v, want 2", got)
	}
}

func TestWriteTextLayout(t *testing.T) {
	tab := &Table{
		Title: "demo", XLabel: "cores", YLabel: "seconds",
		Series: []Series{
			{Label: "a", Points: []Measurement{{P: 1, Seconds: 1.5}, {P: 2, Seconds: 0.8}}},
			{Label: "b", Points: []Measurement{{P: 1, Seconds: 0.0004}}},
		},
	}
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "cores", "1.500s", "800.000ms", "µs", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{Series: []Series{{
		Label: "wf",
		Points: []Measurement{{
			P: 2, Seconds: 0.5, Speedup: 1.9,
			Counters: baseline.Counters{LockAcquisitions: 3, CASRetries: 1, QueueTransfers: 7},
		}},
	}}}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if lines[0] != "series,p,seconds,speedup,lock_acquisitions,cas_retries,queue_transfers" {
		t.Errorf("header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "wf,2,0.5") || !strings.HasSuffix(lines[1], "3,1,7") {
		t.Errorf("row: %s", lines[1])
	}
}

func TestTimeBestPositive(t *testing.T) {
	sec := TimeBest(2, func() {
		s := 0
		for i := 0; i < 1000; i++ {
			s += i
		}
		_ = s
	})
	if sec <= 0 {
		t.Errorf("TimeBest = %v", sec)
	}
	// reps < 1 coerces to 1 run.
	calls := 0
	TimeBest(0, func() { calls++ })
	if calls != 1 {
		t.Errorf("TimeBest(0) ran fn %d times", calls)
	}
}

func TestTimeBestRepReportsFastest(t *testing.T) {
	// Repetition 1 sleeps least, so it must be the one reported.
	naps := []time.Duration{60 * time.Millisecond, time.Millisecond, 40 * time.Millisecond}
	rep := 0
	sec, best := TimeBestRep(len(naps), func() {
		time.Sleep(naps[rep])
		rep++
	})
	if best != 1 || rep != 3 {
		t.Fatalf("best = %d after %d reps, want 1 after 3", best, rep)
	}
	if sec < naps[1].Seconds() {
		t.Fatalf("sec = %v, shorter than the fastest repetition's nap", sec)
	}
}

func TestFig3SmallRun(t *testing.T) {
	tab := Fig3([]int{2000, 4000}, 8, 2, smallParams())
	// 2 sizes × 2 strategies.
	if len(tab.Series) != 4 {
		t.Fatalf("series count %d", len(tab.Series))
	}
	for _, s := range tab.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points", s.Label, len(s.Points))
		}
		for _, m := range s.Points {
			if m.Seconds <= 0 || m.Speedup <= 0 {
				t.Errorf("series %s P=%d: sec=%v speedup=%v", s.Label, m.P, m.Seconds, m.Speedup)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteBoth(&buf, tab); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("WriteBoth missing speedup panel")
	}
}

func TestFig4SmallRun(t *testing.T) {
	tab := Fig4(3000, []int{6, 8}, 2, smallParams())
	if len(tab.Series) != 4 {
		t.Fatalf("series count %d", len(tab.Series))
	}
}

func TestFig5SmallRun(t *testing.T) {
	tab := Fig5(3000, []int{5, 6}, 2, core.MIFused, smallParams())
	if len(tab.Series) != 2 {
		t.Fatalf("series count %d", len(tab.Series))
	}
	for _, s := range tab.Series {
		for _, m := range s.Points {
			if m.Seconds <= 0 {
				t.Errorf("series %s P=%d nonpositive time", s.Label, m.P)
			}
		}
	}
}

func TestHeadlineSmallRun(t *testing.T) {
	tab := Headline(3000, 8, 2, smallParams())
	// All strategies except Sequential.
	if len(tab.Series) != len(baseline.Strategies())-1 {
		t.Fatalf("series count %d", len(tab.Series))
	}
}

func TestAblationsSmallRun(t *testing.T) {
	pr := smallParams()
	for name, tab := range map[string]*Table{
		"queue":      AblationQueue(3000, 8, 2, pr),
		"partition":  AblationPartition(3000, 8, 2, pr),
		"mischedule": AblationMISchedule(3000, 6, 2, pr),
		"table":      AblationTable(3000, 8, 2, pr),
	} {
		want := 3
		if name == "mischedule" || name == "table" {
			want = 4 // four MI schedules; four table kinds (A4 gained dense)
		}
		if len(tab.Series) != want {
			t.Errorf("%s: series count %d, want %d", name, len(tab.Series), want)
		}
		for _, s := range tab.Series {
			if len(s.Points) != 2 {
				t.Errorf("%s/%s: %d points", name, s.Label, len(s.Points))
			}
		}
	}
}

func TestHumanFormat(t *testing.T) {
	cases := map[int]string{
		100:      "100",
		5000:     "5k",
		100000:   "0.1M",
		1000000:  "1M",
		10000000: "10M",
	}
	for in, want := range cases {
		if got := human(in); got != want {
			t.Errorf("human(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Reps != 3 || p.Seed != 42 || len(p.Ps) == 0 {
		t.Errorf("defaults: %+v", p)
	}
}

func TestAccuracySmallRun(t *testing.T) {
	out, err := Accuracy("cancer", []int{2000, 5000}, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Accuracy: cancer", "F1", "SHD", "LL gap", "2000", "5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("accuracy output missing %q:\n%s", want, out)
		}
	}
}

func TestAccuracyUnknownNetwork(t *testing.T) {
	if _, err := Accuracy("nope", []int{100}, 1, 1); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestCountersTableSmallRun(t *testing.T) {
	tab := CountersTable(3000, 8, 2, smallParams())
	if len(tab.Series) != 4 {
		t.Fatalf("series count %d", len(tab.Series))
	}
	// global-lock must report exactly m lock acquisitions at every P.
	for _, s := range tab.Series {
		if s.Label != "global-lock" {
			continue
		}
		for _, m := range s.Points {
			if m.Counters.LockAcquisitions != 3000 {
				t.Errorf("global-lock P=%d: %d locks", m.P, m.Counters.LockAcquisitions)
			}
		}
	}
}

func TestStagesTableSmallRun(t *testing.T) {
	tab := StagesTable(5000, 10, 2, smallParams())
	if len(tab.Series) != 2 {
		t.Fatalf("series count %d", len(tab.Series))
	}
	for _, s := range tab.Series {
		for _, m := range s.Points {
			if m.Seconds < 0 {
				t.Errorf("%s P=%d negative time", s.Label, m.P)
			}
		}
	}
	// Stage 1 must dominate stage 2 at P>=2 (stage 2 at P=1 is empty).
	s1, _ := tab.Series[0].at(2)
	s2, _ := tab.Series[1].at(2)
	if s1.Seconds <= s2.Seconds {
		t.Errorf("stage1 (%v) not dominant over stage2 (%v)", s1.Seconds, s2.Seconds)
	}
}

func TestAblationSkewSmallRun(t *testing.T) {
	tab := AblationSkew(3000, 8, 3, 1.5, smallParams())
	if len(tab.Series) != 3 {
		t.Fatalf("series count %d", len(tab.Series))
	}
}
