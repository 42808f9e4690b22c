package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer. Times are nanoseconds since the tracer was created. Parent is the
// index of the enclosing span, -1 for an op's root. Derived spans are laid
// out from durations the program reports (for example Stats.Stage1Time)
// rather than timed by the benchmark.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = t.now()
	}
}

// fork returns a tracer on the same clock for another goroutine.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{t0: t.t0}
}

// merge appends o's spans, which must all be roots.
func (t *tracer) merge(o *tracer) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, o.spans...)
}

// derive records a span of length d starting at start (ns), clipped to its
// parent's interval, and returns its end.
func (t *tracer) derive(name string, parent int, start int64, d time.Duration) int64 {
	if t == nil {
		return start
	}
	p := t.spans[parent]
	end := start + int64(d)
	if end > p.End {
		end = p.End
	}
	if start > end {
		start = end
	}
	t.spans = append(t.spans, span{Name: name, Op: p.Op, Parent: parent, Start: start, End: end, Derived: true})
	return end
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Overlapping children are counted once
// and children are clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

func spanDurations(spans []span) []int64 {
	d := make([]int64, len(spans))
	for i, s := range spans {
		d[i] = s.End - s.Start
	}
	return d
}

// layerDurations collects, per span name, the durations of that span in
// each op (summed within an op), keyed by name then op.
func layerDurations(spans []span, vals []int64) map[string]map[int]int64 {
	out := map[string]map[int]int64{}
	for i, s := range spans {
		m := out[s.Name]
		if m == nil {
			m = map[int]int64{}
			out[s.Name] = m
		}
		m[s.Op] += vals[i]
	}
	return out
}

// medianMS is the median over ops of per-op nanosecond totals, in ms.
func medianMS(perOp map[int]int64) float64 {
	xs := make([]float64, 0, len(perOp))
	for _, v := range perOp {
		xs = append(xs, float64(v)/1e6)
	}
	return median(xs)
}

// traceArtifact is the file a traced run leaves behind.
type traceArtifact struct {
	Header       header             `json:"header"`
	Overhead     overhead           `json:"tracing_overhead"`
	SelfMS       map[string]float64 `json:"self_ms_per_op"`
	TotalMS      map[string]float64 `json:"total_ms_per_op"`
	Unattributed float64            `json:"unattributed_ms_per_op"`
	PerLayer     map[string]metric  `json:"per_layer"`
	Spans        []tracedSpan       `json:"spans"`
}

type overhead struct {
	UntracedP50MS float64 `json:"untraced_op_p50_ms"`
	TracedP50MS   float64 `json:"traced_op_p50_ms"`
	Pct           float64 `json:"pct"`
}

type tracedSpan struct {
	span
	SelfNS int64 `json:"self_ns"`
}

// writeTrace writes the spans with their self times, the per-layer medians
// of self and total time, and the tracing overhead into dir.
func writeTrace(dir string, h header, ov overhead, spans []span, perLayer map[string]metric) (string, error) {
	self, total := selfTimes(spans), spanDurations(spans)
	art := traceArtifact{
		Header:   h,
		Overhead: ov,
		SelfMS:   map[string]float64{},
		TotalMS:  map[string]float64{},
		PerLayer: perLayer,
		Spans:    make([]tracedSpan, len(spans)),
	}
	for name, perOp := range layerDurations(spans, self) {
		art.SelfMS[name] = medianMS(perOp)
	}
	for name, perOp := range layerDurations(spans, total) {
		art.TotalMS[name] = medianMS(perOp)
	}
	art.Unattributed = art.SelfMS["op"]
	for i, s := range spans {
		art.Spans[i] = tracedSpan{s, self[i]}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", h.Workload, h.Seed))
	b, err := json.Marshal(art)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("writing trace artifact: %w", err)
	}
	return path, nil
}
