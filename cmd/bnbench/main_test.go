package main

import (
	"context"
	"testing"

	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
)

func TestParseList(t *testing.T) {
	got, err := parseList(" 10, 20,30 ")
	if err != nil || len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("got %v, %v", got, err)
	}
	if got, err := parseList(""); err != nil || got != nil {
		t.Fatalf("empty list: %v, %v", got, err)
	}
	for _, in := range []string{"a", "1,b", "0", "-3"} {
		if _, err := parseList(in); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	cases := map[string]core.MISchedule{
		"partition":          core.MIPartitionParallel,
		"partition-parallel": core.MIPartitionParallel,
		"pair":               core.MIPairParallel,
		"pair-dynamic":       core.MIPairDynamic,
		"fused":              core.MIFused,
	}
	for in, want := range cases {
		got, err := parseSchedule(in)
		if err != nil || got != want {
			t.Errorf("parseSchedule(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseSchedule("bogus"); err == nil {
		t.Error("bogus schedule accepted")
	}
}

// TestTimeBuildStagesWithinWallTime checks that the build sweep reports
// each row's stage times from the repetition whose wall time it reports:
// stage 1 and stage 2 are disjoint intervals of that one build, so their
// sum can never exceed its seconds.
func TestTimeBuildStagesWithinWallTime(t *testing.T) {
	data := dataset.NewUniformCard(60_000, 12, 2)
	data.UniformIndependent(5, 0)
	for _, opts := range []core.Options{{P: 1, WriteBatch: 1}, {P: 2}, {P: 2, WriteBatch: 1}} {
		for range 3 {
			pt, st, sec := timeBuild(context.Background(), data, opts, 4)
			if pt.NumSamples() != 60_000 {
				t.Fatalf("table holds %d samples, want 60000", pt.NumSamples())
			}
			if s := (st.Stage1Time + st.Stage2Time).Seconds(); s > sec {
				t.Fatalf("P=%d wb=%d: stage1 %v + stage2 %v = %.6fs exceeds the reported %.6fs",
					opts.P, opts.WriteBatch, st.Stage1Time, st.Stage2Time, s, sec)
			}
		}
	}
}
