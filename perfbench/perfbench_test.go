package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	metricspkg "repro/internal/metrics"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// The decorated policy must leave the simulation exactly as the library
// façade runs it, including the share configuration sim.New reads through
// ShareConfig.
func TestTimedPolicyMatchesCoreSystem(t *testing.T) {
	for _, name := range []string{"sharebackfill", "easy"} {
		spec := simSpec(7, 0, 400)
		jobs, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(core.Config{Machine: spec.Cluster, Policy: name})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SubmitJobs(jobs); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		want := comparable(sys.Metrics())

		base := core.Config{Machine: spec.Cluster, Policy: name}
		ref, err := core.NewSystem(base)
		if err != nil {
			t.Fatal(err)
		}
		pol := newTimedPolicy(ref.Engine().Policy(), newTracer())
		st, err := simSetup(spec, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.eng.RunAll()
		got := comparable(st.eng.Result())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decorated run differs from core.NewSystem:\n got %+v\nwant %+v", name, got, want)
		}
		if len(pol.passes) == 0 || pol.decisions != len(jobs) {
			t.Fatalf("%s: decorator saw %d passes, %d decisions for %d jobs", name, len(pol.passes), pol.decisions, len(jobs))
		}
		if sc, ok := ref.Engine().Policy().(shareConfigurer); ok && pol.ShareConfig() != sc.ShareConfig() {
			t.Fatalf("%s: ShareConfig not forwarded", name)
		}
	}
}

// Running a trace in slices, as the benchmark does, must leave every event
// and decision as one RunAll leaves them; only the utilization integrals,
// summed at the slice ends too, may round differently.
func TestSlicedTraceMatchesRunAll(t *testing.T) {
	spec := simSpec(11, 0, 600)
	whole, err := simSetup(spec, newSimPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	whole.eng.RunAll()
	sliced, err := simSetup(spec, newSimPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		sliced.slice(i, n)
	}
	want, got := comparable(whole.eng.Result()), comparable(sliced.eng.Result())
	if err := checkSim(got, 600); err != nil {
		t.Fatal(err)
	}
	integrals := func(r *metricspkg.Result) []float64 {
		v := []float64{r.BusyNodeSeconds, r.SharedNodeSeconds, r.CompEfficiency, r.Utilization, r.SharedFraction}
		r.BusyNodeSeconds, r.SharedNodeSeconds, r.CompEfficiency, r.Utilization, r.SharedFraction = 0, 0, 0, 0, 0
		return v
	}
	wi, gi := integrals(&want), integrals(&got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sliced run differs from RunAll:\n got %+v\nwant %+v", got, want)
	}
	for i := range wi {
		if math.Abs(gi[i]-wi[i]) > 1e-9*math.Abs(wi[i]) {
			t.Fatalf("integral %d: sliced %v, RunAll %v", i, gi[i], wi[i])
		}
	}
}

func TestCheckSimRejectsUnfinishedJobs(t *testing.T) {
	st, err := simSetup(simSpec(3, 0, 200), newSimPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st.eng.RunAll()
	r := st.eng.Result()
	if err := checkSim(r, 200); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	r.Finished--
	if err := checkSim(r, 200); err == nil {
		t.Fatal("a result missing a finished job passed the check")
	}
}

func TestCheckFabricRejectsCorruptCSV(t *testing.T) {
	spec := fabricSpec(5, 0, 2)
	cp, err := runCampaign(spec, t.TempDir(), newTracer(), true)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := referenceCSV(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFabric(cp.csv, ref); err != nil {
		t.Fatalf("clean campaign rejected: %v", err)
	}
	if len(cp.exec) < cp.cells || cp.journal.syncs == 0 {
		t.Fatalf("traced campaign recorded %d executions for %d cells and %d syncs", len(cp.exec), cp.cells, cp.journal.syncs)
	}
	bad := append([]byte(nil), cp.csv...)
	bad[len(bad)-2] ^= 1
	if err := checkFabric(bad, ref); err == nil {
		t.Fatal("a CSV with a flipped byte passed the check")
	}
	if err := checkFabric(cp.csv[:len(cp.csv)-1], ref); err == nil {
		t.Fatal("a truncated CSV passed the check")
	}
}

func TestCheckServeRejectsCorruptAcks(t *testing.T) {
	p, err := openServePass("..", t.TempDir(), "lo", 50, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	p.segment(9, 0, time.Second, p.fs.tr)
	if p.failed() != 0 || len(p.acked) == 0 {
		t.Fatalf("pass failed %d requests, acked %d submits", p.failed(), len(p.acked))
	}
	if err := checkServe(p.s.addr, 9, p.acked); err != nil {
		t.Fatalf("clean pass rejected: %v", err)
	}
	var token string
	for token = range p.acked {
		break
	}
	for name, corrupt := range map[string]func(map[string]int64){
		"wrong id":   func(m map[string]int64) { m[token]++ },
		"lost token": func(m map[string]int64) { m["pb-never-submitted"] = 1 },
	} {
		acked := make(map[string]int64, len(p.acked))
		for k, v := range p.acked {
			acked[k] = v
		}
		corrupt(acked)
		if err := checkServe(p.s.addr, 9, acked); err == nil {
			t.Fatalf("%s: corrupted acknowledgements passed the audit", name)
		}
	}
}

// countingFS counts Syncs reaching the real filesystem.
type countingFS struct {
	vfs.FS
	syncs *int
}

func (fs countingFS) Create(path string) (vfs.File, error) {
	f, err := fs.FS.Create(path)
	return countingFile{f, fs.syncs}, err
}

type countingFile struct {
	vfs.File
	syncs *int
}

func (f countingFile) Sync() error {
	*f.syncs++
	return f.File.Sync()
}

func TestTimingFSSyncsWithDelayFloor(t *testing.T) {
	var real int
	st := &fsStats{}
	fs := timingFS{FS: countingFS{vfs.OS{}, &real}, delay: 5 * time.Millisecond, st: st}
	f, err := fs.Create(filepath.Join(t.TempDir(), "j"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < 5*time.Millisecond {
		t.Fatalf("sync took %s, under the modeled floor", took)
	}
	if real != 1 || st.syncs != 1 || st.writeBytes != 3 {
		t.Fatalf("real syncs %d, counted syncs %d, bytes %d", real, st.syncs, st.writeBytes)
	}
}

// BENCHMARK.json and the program must agree on every metric name and unit.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, want map[string]string) {
		got := make(map[string]string)
		for _, m := range declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics:\nBENCHMARK.json %v\nprogram        %v", kind, sortedKeys(got), sortedKeys(want))
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, perLayerUnits)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{wlSim, wlFabric, wlServe}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
}

func sortedKeys(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}
