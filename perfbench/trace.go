package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/vfs"
)

// Every layer is timed from outside: the benchmark wraps the public
// functions it calls (a sched.Policy decorator, a vfs.FS wrapper, the fabric
// cell and consume callbacks, the slurm client calls, RunAll and Generate)
// and records one span per call. Nothing inside the program is instrumented.

// span is one timed call into a layer.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced passes run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, so calls made inside it can name
// it as their parent.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose start and end the caller already measured.
func (t *tracer) add(name string, parent int32, req int64, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// writeSpans writes the host header and then one span per line.
func (t *tracer) writeSpans(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shareConfigurer is the optional method sim.New looks for on a policy.
type shareConfigurer interface {
	ShareConfig() sched.ShareConfig
}

// timedPolicy decorates a sched.Policy so each Schedule call is timed and
// its allocations counted. It forwards ShareConfig: sim.New reads the share
// configuration through that method, and a decorator without it would run
// a sharing policy with sharing silently disabled.
type timedPolicy struct {
	sched.Policy
	tr     *tracer
	parent int32 // RunAll span the passes belong to
	req    int64

	passes    []time.Duration
	allocs    []uint64
	decisions int
	sample    []metrics.Sample
}

func newTimedPolicy(p sched.Policy, tr *tracer) *timedPolicy {
	return &timedPolicy{Policy: p, tr: tr,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (p *timedPolicy) ShareConfig() sched.ShareConfig {
	if sc, ok := p.Policy.(shareConfigurer); ok {
		return sc.ShareConfig()
	}
	return sched.ShareConfig{}
}

func (p *timedPolicy) Schedule(ctx *sched.Context) []sched.Decision {
	metrics.Read(p.sample)
	a0 := p.sample[0].Value.Uint64()
	t0 := time.Now()
	d := p.Policy.Schedule(ctx)
	t1 := time.Now()
	metrics.Read(p.sample)
	p.allocs = append(p.allocs, p.sample[0].Value.Uint64()-a0)
	p.passes = append(p.passes, t1.Sub(t0))
	p.decisions += len(d)
	p.tr.add("sched.Policy.Schedule", p.parent, p.req, t0, t1)
	return d
}

// fsyncDelay is the modeled cost of one fsync on a real disk (the value the
// repository's serve benchmarks have always used), so journal-bound paths
// saturate at the same rate on any host, including one backed by tmpfs.
const fsyncDelay = 4 * time.Millisecond

// fsStats accumulates what the journal did through a timingFS.
type fsStats struct {
	tr         *tracer
	span       string // span name prefix, e.g. "fabric.journal"
	mu         sync.Mutex
	writes     []time.Duration
	writeBytes int64
	syncs      int64
	syncTime   time.Duration
}

// timingFS is the one filesystem wrapper under both journals the benchmark
// drives: the fabric campaign journal and the serve controller journal.
// Every file Sync performs the real Sync, so no durability step is skipped,
// and returns no sooner than fsyncDelay after it began: the modeled cost is
// a floor, not an addition. A real fsync on a shared VM disk took from 0.1
// to over 10 ms depending on the neighbours' writes, and added on top of
// the model it made every journaled latency track them. With stats
// attached, Write and Sync calls are timed and counted; with nil stats it
// only enforces the floor.
type timingFS struct {
	vfs.FS
	delay time.Duration
	st    *fsStats
}

func (fs timingFS) Create(path string) (vfs.File, error) {
	f, err := fs.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return timingFile{f, fs.delay, fs.st}, nil
}

func (fs timingFS) OpenAppend(path string) (vfs.File, error) {
	f, err := fs.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return timingFile{f, fs.delay, fs.st}, nil
}

type timingFile struct {
	vfs.File
	delay time.Duration
	st    *fsStats
}

func (f timingFile) Write(b []byte) (int, error) {
	if f.st == nil {
		return f.File.Write(b)
	}
	t0 := time.Now()
	n, err := f.File.Write(b)
	t1 := time.Now()
	f.st.mu.Lock()
	f.st.writes = append(f.st.writes, t1.Sub(t0))
	f.st.writeBytes += int64(n)
	f.st.mu.Unlock()
	f.st.tr.add(f.st.span+".Write", 0, 0, t0, t1)
	return n, err
}

func (f timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	if rest := f.delay - time.Since(t0); rest > 0 {
		time.Sleep(rest)
	}
	if f.st == nil {
		return err
	}
	t1 := time.Now()
	f.st.mu.Lock()
	f.st.syncs++
	f.st.syncTime += t1.Sub(t0)
	f.st.mu.Unlock()
	f.st.tr.add(f.st.span+".Sync", 0, 0, t0, t1)
	return err
}
