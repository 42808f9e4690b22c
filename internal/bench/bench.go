// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section V): the table-construction scalability sweeps of
// Figures 3 and 4, the all-pairs mutual-information sweep of Figure 5, and
// the headline speedup table — plus the ablation sweeps documented in
// DESIGN.md.
//
// Each experiment produces Tables: labeled series of (P, seconds) points
// with derived speedups and contention counters, rendered as fixed-width
// text (the rows the paper plots) or CSV for external plotting.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"waitfreebn/internal/baseline"
)

// Measurement is one point on a scalability curve.
type Measurement struct {
	P        int     // worker count
	Seconds  float64 // best-of-reps wall clock
	Speedup  float64 // T(series at P=1) / T(P); 0 until FillSpeedups
	Counters baseline.Counters
}

// Series is one labeled curve (one method / one workload size).
type Series struct {
	Label  string
	Points []Measurement
}

// Table is a complete figure: several series over a common x-axis.
type Table struct {
	Title  string
	XLabel string // meaning of P ("cores")
	YLabel string // "seconds" or "speedup"
	Series []Series
}

// FillSpeedups computes each point's speedup relative to the same series'
// P=1 measurement (or its smallest-P measurement if P=1 is absent).
func (t *Table) FillSpeedups() {
	for si := range t.Series {
		s := &t.Series[si]
		if len(s.Points) == 0 {
			continue
		}
		base := s.Points[0]
		for _, pt := range s.Points {
			if pt.P < base.P {
				base = pt
			}
			if pt.P == 1 {
				base = pt
				break
			}
		}
		for pi := range s.Points {
			if s.Points[pi].Seconds > 0 {
				s.Points[pi].Speedup = base.Seconds / s.Points[pi].Seconds
			}
		}
	}
}

// WriteText renders the table with one row per P value and one column per
// series, mirroring how the paper's figures are read.
func (t *Table) WriteText(w io.Writer) error {
	ps := t.allPs()
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%-8s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	b.WriteByte('\n')
	for _, p := range ps {
		fmt.Fprintf(&b, "%-8d", p)
		for _, s := range t.Series {
			m, ok := s.at(p)
			if !ok {
				fmt.Fprintf(&b, " %22s", "-")
				continue
			}
			switch t.YLabel {
			case "speedup":
				fmt.Fprintf(&b, " %21.2fx", m.Speedup)
			default:
				fmt.Fprintf(&b, " %22s", formatSeconds(m.Seconds))
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as long-form CSV:
// series,p,seconds,speedup,locks,cas_retries,queue_transfers.
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("series,p,seconds,speedup,lock_acquisitions,cas_retries,queue_transfers\n")
	for _, s := range t.Series {
		for _, m := range s.Points {
			fmt.Fprintf(&b, "%s,%d,%.9f,%.4f,%d,%d,%d\n",
				s.Label, m.P, m.Seconds, m.Speedup,
				m.Counters.LockAcquisitions, m.Counters.CASRetries, m.Counters.QueueTransfers)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SpeedupView returns a copy of the table with YLabel "speedup" — the (b)
// panel of each paper figure.
func (t *Table) SpeedupView() *Table {
	c := &Table{Title: t.Title + " — speedup", XLabel: t.XLabel, YLabel: "speedup", Series: t.Series}
	return c
}

func (t *Table) allPs() []int {
	set := map[int]bool{}
	for _, s := range t.Series {
		for _, m := range s.Points {
			set[m.P] = true
		}
	}
	ps := make([]int, 0, len(set))
	for p := range set {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	return ps
}

func (s *Series) at(p int) (Measurement, bool) {
	for _, m := range s.Points {
		if m.P == p {
			return m, true
		}
	}
	return Measurement{}, false
}

func formatSeconds(sec float64) string {
	switch {
	case sec >= 1:
		return fmt.Sprintf("%.3fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.3fms", sec*1e3)
	default:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	}
}

// TimeBest runs fn reps times and returns the fastest wall-clock duration
// in seconds. Best-of suppresses scheduler noise; reps < 1 is treated as 1.
func TimeBest(reps int, fn func()) float64 {
	sec, _ := TimeBestRep(reps, fn)
	return sec
}

// TimeBestRep is TimeBest that also reports which repetition (0-based) was
// the fastest, so a caller can report that repetition's own side outputs
// next to its time.
func TimeBestRep(reps int, fn func()) (sec float64, best int) {
	if reps < 1 {
		reps = 1
	}
	fastest := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		runtime.GC() // don't bill the previous measurement's garbage to this one
		start := time.Now()
		fn()
		if d := time.Since(start); d < fastest {
			fastest, best = d, r
		}
	}
	return fastest.Seconds(), best
}

// Timing is a variance-aware measurement: the raw per-iteration samples plus
// the mean and min derived from them. Experiments that emit JSON artifacts
// record Timings instead of a single best-of scalar, so a reader can judge
// noise (spread of Samples) rather than trusting one number.
type Timing struct {
	Samples []float64 `json:"samples_s"`
	Mean    float64   `json:"mean_s"`
	Min     float64   `json:"min_s"`
}

// NewTiming summarizes a set of per-iteration samples (seconds).
func NewTiming(samples []float64) Timing {
	t := Timing{Samples: samples}
	if len(samples) == 0 {
		return t
	}
	t.Min = samples[0]
	for _, s := range samples {
		t.Mean += s
		if s < t.Min {
			t.Min = s
		}
	}
	t.Mean /= float64(len(samples))
	return t
}

// TimeSamples runs fn count times and returns every wall-clock sample in run
// order. Unlike TimeBest it keeps all observations — fn may mutate shared
// state between iterations (e.g. each run ingests a fresh delta), in which
// case the samples measure count successive real operations, not count
// repeats of one.
func TimeSamples(count int, fn func()) Timing {
	if count < 1 {
		count = 1
	}
	samples := make([]float64, 0, count)
	for r := 0; r < count; r++ {
		runtime.GC()
		start := time.Now()
		fn()
		samples = append(samples, time.Since(start).Seconds())
	}
	return NewTiming(samples)
}
