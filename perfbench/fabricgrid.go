package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/fabric"
	"repro/internal/parallel"
	"repro/internal/sweepgrid"
	"repro/internal/vfs"
)

// The fabric phase runs sweep campaigns of tiny cells (16 nodes, 20 jobs,
// about a millisecond each) through a journaled fabric.Dispatcher and two
// in-process workers over loopback, so lease and complete round trips,
// checksum verification, journal appends and reassembly dominate. Half the
// policies are exclusive and never take the shared-placement path.
var fabricPolicies = []string{"easy", "conservative", "sharefirstfit", "sharebackfill"}

const fabricWorkers = 2

// fabricCase sizes one fabric phase: campaigns of len(fabricPolicies) × 3
// loads × seeds cells, as many as fit budget, an equal share of it in every
// round.
type fabricCase struct {
	seeds  int
	budget time.Duration
}

// fabricSpec draws campaign k's loads: a light, a saturated and an
// overloaded load, each jittered by the seed. Fixed bands keep the cost of
// a campaign, which grows with load, alike across seeds.
func fabricSpec(seed uint64, k, seeds int) sweepgrid.Spec {
	rng := des.NewRNG(seed).Stream(fmt.Sprintf("fabric/%d", k))
	loads := []float64{0.7, 1.0, 1.3}
	for i := range loads {
		loads[i] = math.Round((loads[i]+rng.Uniform(-0.05, 0.05))*100) / 100
	}
	return sweepgrid.Spec{Policies: fabricPolicies, Loads: loads, Seeds: seeds,
		Nodes: 16, Jobs: 20, Mix: "trinity", Scale: 0.05}
}

// campaign is what one dispatcher campaign produced and took.
type campaign struct {
	csv      []byte
	cells    int
	setup    time.Duration
	wall     time.Duration
	cpu      time.Duration
	counters fabric.Counters
	failed   int

	// Traced campaigns only.
	exec       []time.Duration // time inside Fn
	lags       []time.Duration // Fn return to Consume of the same cell
	workerTime time.Duration   // summed wall time of the workers' Run
	journal    *fsStats
}

func csvHeader() []byte {
	h, err := sweepgrid.EncodeRow(sweepgrid.Header())
	if err != nil {
		panic(err) // the header is a constant
	}
	return h
}

// runCampaign executes spec through a dispatcher journaled under dir. With
// run false it only sets up and tears down, to time the set-up alone.
func runCampaign(spec sweepgrid.Spec, dir string, tr *tracer, run bool) (campaign, error) {
	specJSON, err := spec.Marshal()
	if err != nil {
		return campaign{}, err
	}
	n := spec.NumCells()
	cp := campaign{cells: n}
	var out bytes.Buffer
	out.Write(csvHeader())
	if tr != nil {
		cp.journal = &fsStats{tr: tr, span: "fabric.journal"}
	}
	var (
		mu     sync.Mutex
		fnDone = make([]atomic.Int64, n) // first Fn return per cell, unix ns
	)
	consume := func(i int, row []byte) error {
		if tr != nil {
			now := time.Now()
			mu.Lock()
			cp.lags = append(cp.lags, now.Sub(time.Unix(0, fnDone[i].Load())))
			mu.Unlock()
			defer tr.add("fabric.Config.Consume", 0, int64(i), now, time.Now())
		}
		out.Write(row)
		return nil
	}
	fn := func(_ context.Context, cell int, _ func(float64)) ([]byte, error) {
		return spec.RunCellBytes(cell)
	}
	if tr != nil {
		fn = func(_ context.Context, cell int, _ func(float64)) ([]byte, error) {
			t0 := time.Now()
			b, err := spec.RunCellBytes(cell)
			t1 := time.Now()
			fnDone[cell].CompareAndSwap(0, t1.UnixNano())
			mu.Lock()
			cp.exec = append(cp.exec, t1.Sub(t0))
			mu.Unlock()
			tr.add("fabric.WorkerConfig.Fn", 0, int64(cell), t0, t1)
			return b, err
		}
	}

	t0 := time.Now()
	d, err := fabric.NewDispatcher(fabric.Config{
		Cells: n, Spec: specJSON, Consume: consume,
		JournalPath: filepath.Join(dir, "campaign.journal"),
		FS:          timingFS{FS: vfs.OS{}, delay: fsyncDelay, st: cp.journal},
	})
	if err != nil {
		return cp, err
	}
	defer d.Close()
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		return cp, err
	}
	workers := make([]*fabric.Worker, fabricWorkers)
	for i := range workers {
		if workers[i], err = fabric.NewWorker(fabric.WorkerConfig{ID: fmt.Sprintf("w%d", i), Addr: addr, Fn: fn}); err != nil {
			return cp, err
		}
	}
	cp.setup = time.Since(t0)
	if !run {
		return cp, os.Remove(filepath.Join(dir, "campaign.journal"))
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var (
		wg       sync.WaitGroup
		runErrs  = make([]error, len(workers))
		runTimes = make([]time.Duration, len(workers))
	)
	start, cpu0 := time.Now(), cpuTime()
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *fabric.Worker) {
			defer wg.Done()
			t := time.Now()
			runErrs[i] = w.Run(ctx)
			runTimes[i] = time.Since(t)
		}(i, w)
	}
	waitErr := d.Wait(ctx)
	cp.wall, cp.cpu = time.Since(start), cpuTime()-cpu0
	if waitErr != nil {
		cancel()
	}
	wg.Wait()
	cp.counters = d.Counters()
	cp.failed = int(min(cp.counters.Failed+cp.counters.Poisoned, int64(n)))
	if waitErr != nil {
		return cp, fmt.Errorf("fabric: campaign: %w", waitErr)
	}
	for _, e := range runErrs {
		if e != nil {
			return cp, fmt.Errorf("fabric: worker: %w", e)
		}
	}
	cp.workerTime = sumDur(runTimes)
	cp.csv = out.Bytes()
	return cp, os.Remove(filepath.Join(dir, "campaign.journal"))
}

// referenceCSV runs the same grid in-process with parallel.RunOrdered and
// the same worker count: the CSV every fabric campaign must reproduce byte
// for byte.
func referenceCSV(spec sweepgrid.Spec) ([]byte, time.Duration, error) {
	var out bytes.Buffer
	out.Write(csvHeader())
	t0 := time.Now()
	err := parallel.RunOrdered(spec.NumCells(), fabricWorkers, spec.RunCellBytes, func(_ int, row []byte) error {
		out.Write(row)
		return nil
	})
	return out.Bytes(), time.Since(t0), err
}

// checkFabric is the fabric correctness check.
func checkFabric(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("fabric: campaign CSV (%d bytes) differs from the parallel.RunOrdered reference (%d bytes)", len(got), len(want))
	}
	return nil
}

// fabricPhase is the fabric phase of one run.
type fabricPhase struct {
	c      *collector
	seed   uint64
	fc     fabricCase
	dir    string
	rounds int

	specs   []sweepgrid.Spec
	csvs    [][]byte
	walls   []time.Duration
	cpus    []time.Duration
	rates   []float64 // cells per CPU-second, per campaign
	cells   int
	elapsed time.Duration
}

func newFabricPhase(c *collector, seed uint64, fc fabricCase, dir string, rounds int) *fabricPhase {
	return &fabricPhase{c: c, seed: seed, fc: fc, dir: dir, rounds: rounds}
}

// step runs campaigns until the round's share of the budget is spent, at
// least one.
func (p *fabricPhase) step(int) error {
	budget := p.fc.budget / time.Duration(p.rounds)
	start := time.Now()
	defer func() { p.elapsed += time.Since(start) }()
	for n := 1; ; n++ {
		spec := fabricSpec(p.seed, len(p.specs), p.fc.seeds)
		cp, err := runCampaign(spec, p.dir, nil, true)
		if err != nil {
			return err
		}
		p.c.ops(cp.cells, cp.failed)
		p.specs = append(p.specs, spec)
		p.csvs = append(p.csvs, cp.csv)
		p.walls = append(p.walls, cp.wall)
		p.cpus = append(p.cpus, cp.cpu)
		p.rates = append(p.rates, float64(cp.cells)/cp.cpu.Seconds())
		p.cells += cp.cells
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(n) > budget {
			return nil
		}
	}
}

// finish checks every campaign against the reference, outside the timed
// region, reports the phase and, when traced, runs campaign 0 again with
// every call timed.
func (p *fabricPhase) finish(tr *tracer) error {
	c, fc, seed, dir, specs, cpus := p.c, p.fc, p.seed, p.dir, p.specs, p.cpus
	wallCellsPerS := float64(p.cells) / sumDur(p.walls).Seconds()
	c.phases = append(c.phases, phaseReport{Name: "fabric", Seconds: p.elapsed.Seconds(),
		Units: len(specs), Note: fmt.Sprintf("%d-cell campaigns, %.0f cells per wall second",
			specs[0].NumCells(), wallCellsPerS)})
	c.e2e("sweep_cells_per_s", pct(p.rates, 50), "1/cpu_s")
	c.count("sweep_cells_per_s", len(p.rates))

	var refTime time.Duration
	refs := make([][]byte, len(specs))
	for k, spec := range specs {
		ref, took, err := referenceCSV(spec)
		if err != nil {
			return err
		}
		refs[k] = ref
		refTime += took
		if err := checkFabric(p.csvs[k], ref); err != nil {
			c.fail(fmt.Sprintf("campaign %d: %v", k, err))
		}
	}
	if tr == nil {
		return nil
	}
	// Traced pass: a primary-size campaign, so the consume-lag p99 has ten
	// samples beyond it, once untraced (unless the phase just ran it) and
	// once traced, for the overhead ratio.
	t0 := time.Now()
	spec, ref, base := specs[0], refs[0], cpus[0]
	if fc.seeds != fabricPrimarySeeds {
		spec = fabricSpec(seed, 0, fabricPrimarySeeds)
		var err error
		if ref, _, err = referenceCSV(spec); err != nil {
			return err
		}
		un, err := runCampaign(spec, dir, nil, true)
		if err != nil {
			return err
		}
		c.ops(un.cells, un.failed)
		if err := checkFabric(un.csv, ref); err != nil {
			c.fail(err.Error())
		}
		base = un.cpu
	}
	cp, err := runCampaign(spec, dir, tr, true)
	if err != nil {
		return err
	}
	c.ops(cp.cells, cp.failed)
	if err := checkFabric(cp.csv, ref); err != nil {
		c.fail("traced " + err.Error())
	}
	parCellsPerS := float64(p.cells) / refTime.Seconds()
	execTime := sumDur(cp.exec)
	c.layer("fabric.exec_ms_p50", pct(durMS(cp.exec), 50), "ms")
	c.count("fabric.exec_ms_p50", len(cp.exec))
	c.layer("fabric.overhead_ms_per_cell", (cp.workerTime-execTime).Seconds()*1e3/float64(cp.cells), "ms")
	c.layer("fabric.worker_busy_frac", execTime.Seconds()/(fabricWorkers*cp.wall.Seconds()), "frac")
	c.layer("fabric.consume_lag_ms_p99", pct(durMS(cp.lags), 99), "ms")
	c.count("fabric.consume_lag_ms_p99", len(cp.lags))
	c.layer("fabric.journal.append_us_p50", pct(durUS(cp.journal.writes), 50), "us")
	c.count("fabric.journal.append_us_p50", len(cp.journal.writes))
	c.layer("fabric.journal.bytes_per_cell", float64(cp.journal.writeBytes)/float64(cp.cells), "B")
	c.layer("fabric.journal.syncs", float64(cp.journal.syncs), "count")
	c.layer("fabric.useful_frac", float64(cp.counters.Completed)/float64(max(cp.counters.Granted, 1)), "frac")
	c.layer("fabric.requeues", float64(cp.counters.Requeues), "count")
	c.layer("fabric.speculative_grants", float64(cp.counters.SpeculativeGrants), "count")
	c.layer("parallel.cells_per_s", parCellsPerS, "1/s")
	c.layer("fabric.efficiency", wallCellsPerS/parCellsPerS, "ratio")
	c.layer("trace.sweep_cells_per_s_ratio", base.Seconds()/cp.cpu.Seconds(), "ratio")
	c.phases = append(c.phases, phaseReport{Name: "fabric", Traced: true, Seconds: time.Since(t0).Seconds(),
		Units: 1, Note: fmt.Sprintf("%d-cell campaign", cp.cells)})
	return nil
}
