package repro

// The machine-readable perf trajectory: TestEmitBenchSweepJSON samples the
// sweep-engine and scheduler hot-path benchmarks and writes BENCH_sweep.json
// so every commit's numbers are comparable. The test is opt-in — set
// BENCH_SWEEP_JSON to the output path:
//
//	BENCH_SWEEP_JSON=BENCH_sweep.json go test -run TestEmitBenchSweepJSON -count=1 .
//
// CI runs it on every PR and uploads the file as an artifact.

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/exp"
	"repro/internal/sched"
)

// seedBaseline pins the numbers measured at commit 5bec083 — the last
// commit before the parallel sweep engine and the cluster's free-capacity
// index landed — on a 1-core Xeon @ 2.10GHz reference host. They anchor the
// perf trajectory: speedups in BENCH_sweep.json are relative to these.
var seedBaseline = baselineNumbers{
	Description:  "sequential sweep + per-candidate rescan scheduler (commit 5bec083, 1-core Xeon 2.10GHz)",
	CellsPerSec:  40.3,
	SchedNsPerOp: map[string]float64{"easy": 21743, "conservative": 70737, "sharefirstfit": 80097, "sharebackfill": 113638},
	SchedAllocs:  map[string]float64{"easy": 131, "conservative": 137, "sharefirstfit": 1028, "sharebackfill": 1180},
}

// previousBaseline pins the scheduler pass measured at commit dda1b29, the
// last commit before the per-pass co-allocation candidate table, on the
// 2-CPU Xeon host that produced the committed BENCH_sweep.json: the median
// ns/op of three TestEmitBenchSweepJSON runs there. It is the "before" of
// that change; the file's sched_decision section is the "after".
var previousBaseline = baselineNumbers{
	Description:  "per-job candidate scan, map-based profiles (commit dda1b29, 2-CPU Xeon, median of 3 runs)",
	CellsPerSec:  99.4,
	SchedNsPerOp: map[string]float64{"easy": 31957, "conservative": 121611, "sharefirstfit": 69182, "sharebackfill": 94680},
	SchedAllocs:  map[string]float64{"easy": 99, "conservative": 105, "sharefirstfit": 350, "sharebackfill": 453},
}

type baselineNumbers struct {
	Description  string             `json:"description"`
	CellsPerSec  float64            `json:"cells_per_sec"`
	SchedNsPerOp map[string]float64 `json:"sched_decision_ns_per_op"`
	SchedAllocs  map[string]float64 `json:"sched_decision_allocs_per_op"`
}

type schedDecision struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

type benchSweepReport struct {
	Schema   string        `json:"schema"`
	HostCPUs int           `json:"host_cpus"`
	Grid     sweepGridSpec `json:"grid"`
	// CellsPerSec maps worker counts ("workers_1", "workers_4") to measured
	// grid throughput.
	CellsPerSec map[string]float64 `json:"cells_per_sec"`
	// ParallelSpeedup is workers_4 over workers_1 on this host (≈1 on a
	// single-core host; the runner cannot beat the hardware).
	ParallelSpeedup float64 `json:"parallel_speedup_4w"`
	// SpeedupVsSeedSequential is workers_4 throughput over the recorded
	// seed baseline: hot-path gains × parallel gains.
	SpeedupVsSeedSequential float64 `json:"speedup_vs_seed_sequential"`
	// SchedDecision is the median of schedSamples runs per policy.
	SchedDecision    map[string]schedDecision `json:"sched_decision"`
	PreviousBaseline baselineNumbers          `json:"previous_baseline"`
	SeedBaseline     baselineNumbers          `json:"seed_baseline"`
}

// schedSamples is how many times each scheduler pass benchmark runs; the
// report keeps the run with the median ns/op.
const schedSamples = 3

func TestEmitBenchSweepJSON(t *testing.T) {
	out := os.Getenv("BENCH_SWEEP_JSON")
	if out == "" {
		t.Skip("set BENCH_SWEEP_JSON=<path> to emit the perf-trajectory file")
	}
	g := benchSweepGrid()
	report := benchSweepReport{
		Schema:           "bench-sweep/v1",
		HostCPUs:         runtime.NumCPU(),
		Grid:             g,
		CellsPerSec:      map[string]float64{},
		SchedDecision:    map[string]schedDecision{},
		PreviousBaseline: previousBaseline,
		SeedBaseline:     seedBaseline,
	}

	for _, workers := range []int{1, 4} {
		w := workers
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := runSweepGrid(g, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		key := map[int]string{1: "workers_1", 4: "workers_4"}[workers]
		report.CellsPerSec[key] = float64(g.cells()) * float64(r.N) / r.T.Seconds()
	}
	report.ParallelSpeedup = report.CellsPerSec["workers_4"] / report.CellsPerSec["workers_1"]
	report.SpeedupVsSeedSequential = report.CellsPerSec["workers_4"] / seedBaseline.CellsPerSec

	for _, policy := range []string{"easy", "conservative", "sharefirstfit", "sharebackfill"} {
		p := policy
		var runs []schedDecision
		for i := 0; i < schedSamples; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				ctx, err := exp.BuildOverheadContext(exp.Options{}, 200)
				if err != nil {
					b.Fatal(err)
				}
				pol, err := sched.New(p, sched.DefaultShareConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pol.Schedule(ctx)
				}
			})
			runs = append(runs, schedDecision{
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: float64(r.AllocsPerOp()),
				BytesPerOp:  float64(r.AllocedBytesPerOp()),
			})
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
		report.SchedDecision[p] = runs[len(runs)/2]
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %.1f cells/s at 4 workers (%.2fx vs seed sequential baseline, %d-CPU host)",
		out, report.CellsPerSec["workers_4"], report.SpeedupVsSeedSequential, report.HostCPUs)
}
