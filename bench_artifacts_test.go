package waitfreebn

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waitfreebn/internal/bench"
)

// TestBenchArtifactsMatchCanonicalFlags is the artifact staleness guard:
// every committed BENCH_<exp>.json must embed the exact flag string
// bench.CanonicalFlags registers for that experiment (the `make
// bench-<exp>` invocation), and every registered experiment must have a
// committed artifact. A sweep whose flags changed without a regeneration —
// or an artifact hand-edited or produced by an off-canonical run — fails
// here instead of silently misrepresenting the committed numbers.
func TestBenchArtifactsMatchCanonicalFlags(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, path := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		want, ok := bench.CanonicalFlags[name]
		if !ok {
			t.Errorf("%s: committed artifact for unregistered experiment %q (add it to bench.CanonicalFlags)", path, name)
			continue
		}
		seen[name] = true
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Flags string `json:"flags"`
		}
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Errorf("%s: not valid JSON: %v", path, err)
			continue
		}
		if doc.Flags != want {
			t.Errorf("%s is stale: generated with flags %q, canonical is %q (rerun `make bench-%s`)",
				path, doc.Flags, want, name)
		}
	}
	for name := range bench.CanonicalFlags {
		if !seen[name] {
			t.Errorf("no committed BENCH_%s.json for registered experiment %q (run `make bench-%s`)", name, name, name)
		}
	}
}

// TestBuildArtifactStagesWithinWallTime checks that every row of the
// committed build artifact reports the stage times of the repetition whose
// wall time it reports: stage 1 and stage 2 are disjoint intervals of one
// build, so their sum cannot exceed that build's seconds.
func TestBuildArtifactStagesWithinWallTime(t *testing.T) {
	blob, err := os.ReadFile("BENCH_build.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []struct {
			P          int     `json:"p"`
			WriteBatch int     `json:"write_batch"`
			Seconds    float64 `json:"seconds"`
			Stats      struct {
				Stage1 float64 `json:"stage1_seconds"`
				Stage2 float64 `json:"stage2_seconds"`
			} `json:"stats"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) == 0 {
		t.Fatal("BENCH_build.json has no rows")
	}
	for _, r := range doc.Rows {
		if s := r.Stats.Stage1 + r.Stats.Stage2; s > r.Seconds {
			t.Errorf("P=%d write-batch=%d: stage1 %.4fs + stage2 %.4fs = %.4fs exceeds the row's %.4fs (stats from another repetition? rerun `make bench-build`)",
				r.P, r.WriteBatch, r.Stats.Stage1, r.Stats.Stage2, s, r.Seconds)
		}
	}
}
