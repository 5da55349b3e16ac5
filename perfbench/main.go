// Command perfbench is the repository's benchmark. One process runs one
// named workload and prints every metric by name with its unit, then a last
// line that a benchmark runner parses:
//
//	bash perfbench/run.sh --workload sim_share_trace --seed 1 --seconds 30 --trace 0
//
// Each run measures three phases, all in process: long node-sharing
// simulations (sim), sweep campaigns through the distributed fabric
// (fabric), and an open-loop load on two journaled controllers (serve). The
// named workload's phase is the large one; the other two run at a fixed
// companion size, so every run reports every metric. The phases are
// interleaved: a run is a sequence of rounds, and in every round the sim
// advances each trace by one slice of its arrival span, the fabric runs its
// share of campaigns, and the serve phase drives each controller for one
// segment. So every metric samples the whole run, and a slow stretch of a
// shared host moves all of them a little rather than one a lot. Before the
// rounds the run sets up the named workload's phase nine times; setup_s is
// the median. With --trace 0 the rounds are untraced and the run prints the end-to-end
// metrics. With --trace 1 each phase then runs again with one span recorded
// per layer call; the run prints the per-layer metrics, including tracing
// overhead, and writes the spans under .bench_build/spans/.
//
// Throughputs (sim_jobs_per_s, sweep_cells_per_s) are per second of the
// process's CPU time: on a shared VM the wall clock also counts time other
// tenants steal from the vCPUs. Latencies are wall time from when each
// request was due. The line before the result carries the host header
// (commit, Go version, CPU model, nproc, GOMAXPROCS), the phases that ran,
// failures by kind, and the sample count behind every percentile and median.
//
// Every phase checks its output after its timed region; a failed check
// prints "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	wlSim    = "sim_share_trace"
	wlFabric = "fabric_grid"
	wlServe  = "serve_mixed"
)

// Phase sizes. A primary phase is the named workload's; a companion is
// the same phase at a small fixed size. Sim traces are sized in jobs, not
// seconds: a trace's cost per job varies with how its backlog grows, less so
// the longer it is (between seeds, single 1000-job traces spread by about
// 28% and 6000-job ones by about 7%), so the sim runs two long traces.
const (
	simPrimaryJobs     = 16000
	simPrimaryTraces   = 2
	simCompanionJobs   = 6000
	simCompanionTraces = 2
	fabricPrimarySeeds = 100 // 1200-cell campaigns
	fabricCompSeeds    = 20  // 240-cell campaigns
)

// runPlan sizes the three phases of one run.
type runPlan struct {
	rounds int
	sim    simCase
	fabric fabricCase
	serve  serveCase
}

// plan sizes the phases for a run of secs seconds: rounds of about five
// seconds, an even number so the sim's two traces split them.
func plan(workload string, secs float64) runPlan {
	s := func(f float64) time.Duration { return time.Duration(f * secs * float64(time.Second)) }
	p := runPlan{
		rounds: 2 * max(1, int(math.Round(secs/10))),
		sim:    simCase{jobs: simCompanionJobs, traces: simCompanionTraces},
		fabric: fabricCase{seeds: fabricCompSeeds, budget: s(0.1)},
		serve:  serveCase{lo: s(0.2), hi: s(0.25)},
	}
	switch workload {
	case wlSim:
		p.sim = simCase{jobs: simPrimaryJobs, traces: simPrimaryTraces}
	case wlFabric:
		p.fabric = fabricCase{seeds: fabricPrimarySeeds, budget: s(0.32)}
	case wlServe:
		p.serve = serveCase{lo: s(0.3), hi: s(0.7)}
	}
	return p
}

// endToEndUnits and perLayerUnits are the metrics a --trace 0 and a
// --trace 1 run print, with their units; BENCHMARK.json declares the same.
var endToEndUnits = map[string]string{
	"setup_s": "s", "ops_ok_frac": "frac",
	"sim_jobs_per_s": "1/cpu_s", "sim_peak_heap_mb": "MB",
	"sweep_cells_per_s":   "1/cpu_s",
	"serve_submit_p50_ms": "ms", "serve_query_p50_ms": "ms",
	"serve_within_slo_frac":  "frac",
	"serve_submit_p50_ms_lo": "ms", "serve_query_p50_ms_lo": "ms",
}

var perLayerUnits = map[string]string{
	"sched.pass_us_p50": "us", "sched.pass_us_p99": "us", "sched.busy_frac": "frac",
	"sched.allocs_per_pass": "count", "sched.passes": "count", "sched.decisions": "count",
	"sim.self_s": "s", "sim.allocs_per_job": "count", "gc.cycles": "count", "gc.pause_ms": "ms",
	"sim.live_heap_mb_end": "MB", "workload.generate_s": "s",
	"fabric.exec_ms_p50": "ms", "fabric.overhead_ms_per_cell": "ms", "fabric.worker_busy_frac": "frac",
	"fabric.consume_lag_ms_p99": "ms", "fabric.journal.append_us_p50": "us",
	"fabric.journal.bytes_per_cell": "B", "fabric.journal.syncs": "count",
	"fabric.useful_frac": "frac", "fabric.requeues": "count", "fabric.speculative_grants": "count",
	"parallel.cells_per_s": "1/s", "fabric.efficiency": "ratio",
	"serve.journal.syncs_per_mutation": "ratio", "serve.journal.sync_busy_frac": "frac",
	"serve.journal.write_bytes_per_mutation": "B",
	"serve.submit_p99_ms":                    "ms", "serve.query_p99_ms": "ms",
	"serve.advance_ms_p50": "ms", "serve.advance_ms_p95": "ms", "serve.dial_us_p50": "us",
	"serve.generator_lag_ms_p99": "ms", "serve.queue_len_end": "count",
	"serve.shed": "count", "serve.busy": "count", "serve.deadline_exceeded": "count",
	"serve.stale_reads": "count", "serve.brownout_steps": "count",
	"trace.sim_jobs_per_s_ratio": "ratio", "trace.sweep_cells_per_s_ratio": "ratio",
	"trace.serve_submit_p50_ms_ratio": "ratio",
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceN int
	fs.StringVar(&o.workload, "workload", "", "workload: "+wlSim+", "+wlFabric+" or "+wlServe)
	fs.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 30, "seconds of measurement")
	fs.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceN == 1
	switch {
	case o.workload != wlSim && o.workload != wlFabric && o.workload != wlServe:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	case traceN != 0 && traceN != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceN)
		return 2
	case !(o.seconds > 0):
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	var err error
	if o.root, err = os.Getwd(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(o.root, serveConf)); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 1
	}
	res, report, err := bench(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// report is the line before the result: host header, what ran, and the
// sample count behind every percentile.
type report struct {
	Host     host           `json:"host"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Phases   []phaseReport  `json:"phases"`
	Samples  map[string]int `json:"samples"`
	Checks   []string       `json:"failed_checks,omitempty"`
	Failures map[string]int `json:"failures,omitempty"`
	Spans    string         `json:"spans,omitempty"`
}

func bench(o options) (result, report, error) {
	rep := report{Host: hostInfo(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	tmp := filepath.Join(o.root, ".bench_build", "tmp", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return result{}, rep, err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	c := newCollector()
	pl := plan(o.workload, o.seconds)
	setups, err := sampleSetups(o, pl, tmp)
	if err != nil {
		return result{}, rep, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	simP := newSimPhase(c, o.seed, pl.sim, pl.rounds)
	fabP := newFabricPhase(c, o.seed, pl.fabric, tmp, pl.rounds)
	srvP, err := newServePhase(c, o.root, tmp, o.seed, pl.serve, pl.rounds)
	if err != nil {
		return result{}, rep, fmt.Errorf("serve phase: %w", err)
	}
	defer srvP.close()
	phases := []struct {
		name   string
		step   func(int) error
		finish func(*tracer) error
	}{{wlSim, simP.step, simP.finish}, {wlFabric, fabP.step, fabP.finish}, {wlServe, srvP.step, srvP.finish}}
	for k := 0; k < pl.rounds; k++ {
		for _, ph := range phases {
			// Each step starts on a collected heap, so no phase pays for
			// another's garbage.
			runtime.GC()
			if err := ph.step(k); err != nil {
				return result{}, rep, fmt.Errorf("%s phase: %w", ph.name, err)
			}
		}
	}
	for _, ph := range phases {
		runtime.GC()
		if err := ph.finish(tr); err != nil {
			return result{}, rep, fmt.Errorf("%s phase: %w", ph.name, err)
		}
	}

	res := result{Correct: len(c.checks) == 0, Attempted: c.attempted, Failed: c.failed}
	if o.trace {
		res.Metrics = c.perLayer
		dir := filepath.Join(o.root, ".bench_build", "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, rep, err
		}
		rep.Spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeSpans(filepath.Join(o.root, rep.Spans), rep.Host); err != nil {
			return result{}, rep, err
		}
	} else {
		c.e2e("setup_s", medianDur(setups).Seconds(), "s")
		c.count("setup_s", len(setups))
		c.e2e("ops_ok_frac", 1-float64(c.failed)/float64(c.attempted), "frac")
		res.Metrics = c.endToEnd
	}
	want := endToEndUnits
	if o.trace {
		want = perLayerUnits
	}
	for name, m := range res.Metrics {
		if m.Value != m.Value { // NaN: a phase produced no samples
			return result{}, rep, fmt.Errorf("metric %s has no samples", name)
		}
		if want[name] != m.Unit {
			return result{}, rep, fmt.Errorf("metric %s (%s) is not declared", name, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		return result{}, rep, fmt.Errorf("run measured %d of %d metrics", len(res.Metrics), len(want))
	}
	rep.Phases, rep.Samples, rep.Checks, rep.Failures = c.phases, c.samples, c.checks, c.failures
	return res, rep, nil
}

// minSetups is how many set-ups setup_s is the median of.
const minSetups = 9

// sampleSetups times minSetups set-ups of the named workload's phase before
// anything else runs, each from a collected heap, so every run times them
// in the same process state: a sim trace generated and loaded into a fresh
// engine, a campaign's dispatcher and workers brought up, or a controller
// opened on a fresh journal and listening.
func sampleSetups(o options, pl runPlan, tmp string) ([]time.Duration, error) {
	var out []time.Duration
	for k := 0; k < minSetups; k++ {
		runtime.GC()
		switch o.workload {
		case wlSim:
			// Trace numbers past the phase's own, so none is generated twice.
			st, err := simSetup(simSpec(o.seed, pl.sim.traces+k, pl.sim.jobs), newSimPolicy(), nil)
			if err != nil {
				return nil, err
			}
			out = append(out, st.setup)
		case wlFabric:
			cp, err := runCampaign(fabricSpec(o.seed, k, pl.fabric.seeds), tmp, nil, false)
			if err != nil {
				return nil, err
			}
			out = append(out, cp.setup)
		case wlServe:
			t0 := time.Now()
			s, err := startServer(o.root, filepath.Join(tmp, fmt.Sprintf("setup%d", k)), nil)
			if err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0))
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
