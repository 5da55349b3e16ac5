package main

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	metricspkg "repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The sim phase simulates long Poisson traces on a 128-node Trinity
// partition under sharebackfill at offered load 1.2: the shape of the
// paper's node-sharing result, where the scheduler pass does most of the
// work and the retained finished jobs, history and decision times grow with
// the trace.
const (
	simNodes  = 128
	simLoad   = 1.2
	simPolicy = "sharebackfill"
)

// simCase sizes one sim phase: traces of jobs each. Every trace is advanced
// in slices, one per round, so the phase spreads over the whole run.
type simCase struct {
	jobs   int
	traces int
}

func simSpec(seed uint64, k, jobs int) workload.Spec {
	return workload.Spec{
		Mix: workload.TrinityMix(), Jobs: jobs, Arrival: workload.Poisson,
		Load: simLoad, Cluster: cluster.Trinity(simNodes),
		Seed: des.NewRNG(seed).Stream(fmt.Sprintf("sim/%d", k)).Uint64(),
	}
}

// newSimEngine builds the engine core.NewSystem builds for its default
// configuration, but with the policy supplied by the caller so the
// benchmark can decorate it.
func newSimEngine(pol sched.Policy) *sim.Engine {
	return sim.New(sim.Config{Cluster: cluster.Trinity(simNodes), Policy: pol, Inter: interference.Default()})
}

func newSimPolicy() sched.Policy {
	pol, err := sched.New(simPolicy, sched.DefaultShareConfig())
	if err != nil {
		panic(err) // simPolicy is a registry name
	}
	return pol
}

// comparable drops the one wall-clock field of a Result, leaving what a
// deterministic simulation must reproduce exactly.
func comparable(r metricspkg.Result) metricspkg.Result {
	r.DecisionNanos = stats.Summary{}
	return r
}

// simTrace is one generated trace loaded into a fresh engine.
type simTrace struct {
	eng     *sim.Engine
	gen     time.Duration // inside workload.Generate
	setup   time.Duration // Generate, engine and SubmitAll
	horizon des.Time      // last arrival
}

// simSetup generates one trace and loads it into a fresh engine.
func simSetup(spec workload.Spec, pol sched.Policy, tr *tracer) (*simTrace, error) {
	t0 := time.Now()
	jobs, err := workload.Generate(spec)
	t1 := time.Now()
	tr.add("workload.Generate", 0, 0, t0, t1)
	if err != nil {
		return nil, err
	}
	st := &simTrace{eng: newSimEngine(pol), gen: t1.Sub(t0)}
	if err := st.eng.SubmitAll(jobs); err != nil {
		return nil, err
	}
	for _, j := range jobs {
		st.horizon = max(st.horizon, j.Submit)
	}
	st.setup = time.Since(t0)
	return st, nil
}

// slice runs the trace through slice k of n: an equal share of the arrival
// span each, the last until no events remain. Slicing leaves the events and
// decisions unchanged, but the utilization integrals are summed at the slice
// ends too and may round differently, so runs that are compared are sliced
// alike.
func (st *simTrace) slice(k, n int) {
	if k == n-1 {
		st.eng.RunAll()
		return
	}
	st.eng.Run(st.horizon * des.Time(k+1) / des.Time(n))
}

// checkSim is the sim correctness check: every submitted job finished.
func checkSim(r metricspkg.Result, jobs int) error {
	if r.Finished != jobs || r.Submitted != jobs {
		return fmt.Errorf("sim: %d of %d jobs finished (%d submitted)", r.Finished, jobs, r.Submitted)
	}
	return nil
}

// liveHeapMB forces a collection and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// simPhase is the sim phase of one run: sc.traces traces one after the
// other, each advanced by one slice per round.
type simPhase struct {
	c      *collector
	seed   uint64
	sc     simCase
	slices int // per trace

	cur      *simTrace
	gens     []time.Duration
	wall     time.Duration
	cpus     []time.Duration // per trace
	finished int
	heaps    []float64 // heap the engine retains at the end of each trace, MB
	first    metricspkg.Result
	elapsed  time.Duration
}

func newSimPhase(c *collector, seed uint64, sc simCase, rounds int) *simPhase {
	return &simPhase{c: c, seed: seed, sc: sc, slices: rounds / sc.traces}
}

// step runs round's slice: it sets up the next trace on the first slice
// and checks it on the last. Set-up and checks are outside the timing.
func (p *simPhase) step(round int) error {
	start := time.Now()
	defer func() { p.elapsed += time.Since(start) }()
	k, i := round/p.slices, round%p.slices
	if i == 0 {
		st, err := simSetup(simSpec(p.seed, k, p.sc.jobs), newSimPolicy(), nil)
		if err != nil {
			return err
		}
		p.cur = st
		p.gens = append(p.gens, st.gen)
		p.cpus = append(p.cpus, 0)
		runtime.GC()
	}
	t0, c0 := time.Now(), cpuTime()
	p.cur.slice(i, p.slices)
	p.wall += time.Since(t0)
	p.cpus[k] += cpuTime() - c0
	if i < p.slices-1 {
		return nil
	}
	// The engine's retained state (finished jobs, history, decision times)
	// only grows during a trace, so what it holds at the end is its peak:
	// the live heap with the engine minus the live heap without it, which
	// leaves out whatever the other phases hold.
	eng := p.cur.eng
	res := eng.Result()
	with := liveHeapMB()
	runtime.KeepAlive(eng)
	p.cur, eng = nil, nil
	p.heaps = append(p.heaps, with-liveHeapMB())
	p.c.ops(p.sc.jobs, p.sc.jobs-res.Finished)
	if err := checkSim(res, p.sc.jobs); err != nil {
		p.c.fail(err.Error())
	}
	p.finished += res.Finished
	if k == 0 {
		p.first = comparable(res)
	}
	return nil
}

// finish reports the phase and, when traced, runs trace 0 again, sliced
// alike, through the timed policy.
func (p *simPhase) finish(tr *tracer) error {
	p.c.phases = append(p.c.phases, phaseReport{Name: "sim", Seconds: p.elapsed.Seconds(),
		Units: len(p.cpus), Note: fmt.Sprintf("%d-job traces in %d slices, %.0f jobs per wall second",
			p.sc.jobs, p.slices, float64(p.finished)/p.wall.Seconds())})
	// Jobs over CPU time pooled over the traces: a trace's cost varies with
	// how its backlog grows, and a pooled ratio averages that out best.
	p.c.e2e("sim_jobs_per_s", float64(p.finished)/sumDur(p.cpus).Seconds(), "1/cpu_s")
	p.c.e2e("sim_peak_heap_mb", pct(p.heaps, 50), "MB")
	p.c.count("sim_peak_heap_mb", len(p.heaps))
	p.c.count("sim_jobs_per_s", len(p.cpus))

	if tr == nil {
		return nil
	}
	t0 := time.Now()
	pol := newTimedPolicy(newSimPolicy(), tr)
	st, err := simSetup(simSpec(p.seed, 0, p.sc.jobs), pol, tr)
	if err != nil {
		return err
	}
	gens := append(p.gens, st.gen)
	eng := st.eng
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	metrics.Read(allocs)
	a0 := allocs[0].Value.Uint64()
	var run, cpu time.Duration
	for i := 0; i < p.slices; i++ {
		name := "sim.Engine.Run"
		if i == p.slices-1 {
			name = "sim.Engine.RunAll"
		}
		rid := tr.begin(name, 0, int64(i))
		pol.parent = rid
		t1, c1 := time.Now(), cpuTime()
		st.slice(i, p.slices)
		run, cpu = run+time.Since(t1), cpu+cpuTime()-c1
		tr.end(rid)
	}
	metrics.Read(allocs)
	runtime.ReadMemStats(&m1)
	res := eng.Result()
	if err := checkSim(res, p.sc.jobs); err != nil {
		p.c.fail("traced " + err.Error())
	}
	if !reflect.DeepEqual(comparable(res), p.first) {
		p.c.fail("sim: traced and untraced runs of trace 0 gave different results")
	}
	live := liveHeapMB()
	runtime.KeepAlive(eng)

	c := p.c
	passTime := sumDur(pol.passes)
	var passAllocs uint64
	for _, a := range pol.allocs {
		passAllocs += a
	}
	np := len(pol.passes)
	c.layer("sched.pass_us_p50", pct(durUS(pol.passes), 50), "us")
	c.layer("sched.pass_us_p99", pct(durUS(pol.passes), 99), "us")
	c.count("sched.pass_us_p50", np)
	c.count("sched.pass_us_p99", np)
	c.layer("sched.busy_frac", passTime.Seconds()/run.Seconds(), "frac")
	c.layer("sched.allocs_per_pass", float64(passAllocs)/float64(max(np, 1)), "count")
	c.layer("sched.passes", float64(np), "count")
	c.layer("sched.decisions", float64(pol.decisions), "count")
	c.layer("sim.self_s", (run - passTime).Seconds(), "s")
	c.layer("sim.allocs_per_job", float64(allocs[0].Value.Uint64()-a0)/float64(p.sc.jobs), "count")
	c.layer("gc.cycles", float64(m1.NumGC-m0.NumGC), "count")
	c.layer("gc.pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	c.layer("sim.live_heap_mb_end", live, "MB")
	c.layer("workload.generate_s", medianDur(gens).Seconds(), "s")
	c.count("workload.generate_s", len(gens))
	c.layer("trace.sim_jobs_per_s_ratio", p.cpus[0].Seconds()/cpu.Seconds(), "ratio")
	c.phases = append(c.phases, phaseReport{Name: "sim", Traced: true, Seconds: time.Since(t0).Seconds(),
		Units: 1, Note: fmt.Sprintf("trace 0 again, %d passes", np)})
	return nil
}
