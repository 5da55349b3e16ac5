package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// metric is one named measurement as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collector gathers what the phases of one run measured.
type collector struct {
	endToEnd  map[string]metric
	perLayer  map[string]metric
	samples   map[string]int // sample count behind each percentile and median
	attempted int64
	failed    int64
	checks    []string       // failed correctness checks
	failures  map[string]int // failed operations by kind
	phases    []phaseReport
}

// phaseReport describes one executed phase in the report line.
type phaseReport struct {
	Name    string  `json:"name"`
	Traced  bool    `json:"traced"`
	Seconds float64 `json:"seconds"`
	Units   int     `json:"units"`
	Note    string  `json:"note,omitempty"`
}

func newCollector() *collector {
	return &collector{
		endToEnd: make(map[string]metric),
		perLayer: make(map[string]metric),
		samples:  make(map[string]int),
		failures: make(map[string]int),
	}
}

func (c *collector) e2e(name string, v float64, unit string) {
	c.endToEnd[name] = metric{v, unit}
}

func (c *collector) layer(name string, v float64, unit string) {
	c.perLayer[name] = metric{v, unit}
}

// count records the sample count behind a percentile metric.
func (c *collector) count(name string, n int) { c.samples[name] = n }

func (c *collector) ops(attempted, failed int) {
	c.attempted += int64(attempted)
	c.failed += int64(failed)
}

func (c *collector) fail(check string) { c.checks = append(c.checks, check) }

// pct returns the p-th percentile of xs, or NaN for no samples.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Percentile(xs, p)
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func durUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// cpuTime is the process's user plus system CPU time. Throughput is taken
// over it rather than over wall time: on a shared VM the wall clock also
// counts time other tenants steal from the vCPUs, which moved identical
// simulations by 2x between runs, while CPU time moved them by under 10%.
// On an otherwise idle host the two agree for the single-threaded sim.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// host is the header every output carries.
type host struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostInfo() host {
	h := host{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "+dirty"
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}
