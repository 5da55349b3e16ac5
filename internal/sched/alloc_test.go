package sched_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/sched"
)

// TestSchedulePassAllocationGate pins the heap allocations of one
// scheduling pass per policy over the F3 overhead state (a 32-node machine,
// half its nodes hosting one single-layer job, 200 queued jobs). The pass
// is deterministic, so its allocation count is exact; each ceiling is the
// count measured when the gate was set plus 10% (allocMargin), so a change
// that makes the pass allocate more fails here instead of waiting for a
// benchmark run.
func TestSchedulePassAllocationGate(t *testing.T) {
	const allocMargin = 1.10
	measured := map[string]float64{
		"easy":          26,
		"conservative":  32,
		"sharefirstfit": 167,
		"sharebackfill": 217,
	}
	ctx, err := exp.BuildOverheadContext(exp.Options{}, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"easy", "conservative", "sharefirstfit", "sharebackfill"} {
		pol, err := sched.New(name, sched.DefaultShareConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() { pol.Schedule(ctx) })
		ceiling := measured[name] * allocMargin
		t.Logf("%s: %.0f allocs per pass (ceiling %.0f)", name, got, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.0f allocs per pass, ceiling %.0f", name, got, ceiling)
		}
	}
}
