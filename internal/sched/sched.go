// Package sched implements the batch scheduling policies under study.
//
// Baselines (standard node allocation, nodes are exclusive):
//
//	FCFS         strict first-come-first-served
//	FirstFit     queue scan, start whatever fits
//	EASY         aggressive backfill with one reservation for the queue head
//	Conservative backfill with reservations for every queued job
//
// Paper contributions (node sharing by SMT core oversubscription):
//
//	ShareFirstFit     co-allocation-aware first fit
//	ShareBackfill     co-allocation-aware EASY backfill
//	ShareConservative co-allocation-aware conservative backfill
//
// A policy is a pure decision procedure: it inspects a Context (queue,
// running set, cluster, interference model) and returns the list of jobs to
// start now together with their placements. The simulator owns all state
// mutation, which keeps every policy trivially testable.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/topology"
)

// ShareConfig tunes the sharing-capable policies. The zero value disables
// sharing entirely (the policy degrades to its exclusive ancestor).
type ShareConfig struct {
	// Enabled turns co-allocation on.
	Enabled bool
	// MaxDegree caps the number of jobs per node; 2 matches the paper's
	// hyper-threading sharing (one job per hardware-thread layer).
	MaxDegree int
	// MinComplementarity rejects pairings whose stress vectors overlap too
	// much (see app.Complementarity). 0 accepts everything.
	MinComplementarity float64
	// PairingAware sorts co-allocation candidates by complementarity with
	// the resident job; disabled (ablation) picks candidates in node order.
	PairingAware bool
	// InflationAccounting makes backfill reservations use
	// interference-inflated completion estimates, preserving the EASY
	// no-delay guarantee under sharing. Disabling it (ablation) plans with
	// nominal walltimes and can delay the queue head.
	InflationAccounting bool
	// PreferShared places jobs on co-allocation candidates before idle
	// nodes; disabling it (ablation) exhausts idle nodes first and shares
	// only under pressure.
	PreferShared bool
	// MinEstimatedRate rejects co-allocations whose estimated progress
	// rate — for the incoming job or any resident — falls below this
	// floor. Zero disables the check. Unlike MinComplementarity (a cheap
	// stress-vector heuristic), this gate consults the interference model
	// itself, so it also honors empirically measured pair matrices.
	MinEstimatedRate float64
}

// DefaultShareConfig returns the configuration the paper's strategies use.
func DefaultShareConfig() ShareConfig {
	return ShareConfig{
		Enabled:             true,
		MaxDegree:           2,
		MinComplementarity:  0.40,
		PairingAware:        true,
		InflationAccounting: true,
		PreferShared:        true,
	}
}

// RunningJob is the scheduler-visible state of a started job.
type RunningJob struct {
	// Job is the underlying job (read-only for policies).
	Job *job.Job
	// NodeIDs are the nodes the job occupies.
	NodeIDs []int
	// Exclusive reports whether the job holds whole nodes.
	Exclusive bool
	// NominalEnd is the walltime-limit end ignoring sharing inflation
	// (start + requested walltime).
	NominalEnd des.Time
	// PredictedEnd is the inflation-aware completion estimate maintained by
	// the simulator: now + remaining requested work / current progress rate.
	PredictedEnd des.Time
	// Rate is the job's current progress rate (1 when running dedicated).
	Rate float64
}

// Decision is one start action returned by a policy.
type Decision struct {
	// Job is the job to start.
	Job *job.Job
	// Placement is the exact allocation to commit.
	Placement cluster.Placement
	// Shared marks a co-allocation (the job lands on nodes that already
	// host another job).
	Shared bool
	// EstimatedRate is the policy's conservative progress-rate estimate for
	// the placement (1 for exclusive placements).
	EstimatedRate float64
}

// Context is the scheduler's view of the world at one decision point.
type Context struct {
	// Now is the current simulated time.
	Now des.Time
	// Cluster is the machine (policies must treat it as read-only).
	Cluster *cluster.Cluster
	// Queue holds pending jobs in priority order (head first).
	Queue []*job.Job
	// Running holds the running set.
	Running []*RunningJob
	// Inter is the co-run model used for pairing decisions and inflation
	// estimates.
	Inter *interference.Model
	// Share is the sharing configuration.
	Share ShareConfig
	// Topo, when set, makes placement locality-aware: idle candidates are
	// ordered compactly so jobs span as few leaf switches as possible.
	Topo *topology.Topology

	// residentIdx and residentOff cache node → running jobs for the pass,
	// built lazily by residents: node ni's residents, in ctx.Running order,
	// are residentIdx[residentOff[ni]:residentOff[ni+1]].
	residentIdx []*RunningJob
	residentOff []int32
	// idle caches Cluster.IdleNodes for the pass (see idleNodes).
	idle []int
	// table is the pass's co-allocation candidate table, built lazily by
	// shareTable.
	table *shareTable

	// hostRateIdx memoizes the interference model's host-rate answer per
	// (host application, guest application) pair for the pass — the
	// inflation-accounting path asks this once per resident per candidate
	// placement.
	hostRateIdx map[compatKey]float64
}

// forPass returns a copy of ctx that uses share. Policies build their
// per-pass caches on the copy, so the caches live one Schedule call and the
// caller's Context never holds any.
func (ctx *Context) forPass(share ShareConfig) *Context {
	scoped := *ctx
	scoped.Share = share
	return &scoped
}

// compatKey identifies an ordered pair of applications by name.
type compatKey struct {
	guest     string
	residents string
}

// residentsKey names a resident set by its applications in order.
func residentsKey(residents []*RunningJob) string {
	if len(residents) == 1 {
		return residents[0].Job.App.Name
	}
	joined := ""
	for i, r := range residents {
		if i > 0 {
			joined += "\x00"
		}
		joined += r.Job.App.Name
	}
	return joined
}

// compatProfile is one pairing evaluation: whether the pairing passes the
// configured gates, its worst complementarity score, and the guest's
// estimated progress rate.
type compatProfile struct {
	ok    bool
	score float64
	rate  float64
}

// pairing evaluates guest job j against the residents of a node. Pairing
// quality is a pure function of the applications' stress vectors and the
// interference model, so the candidate table evaluates it once per guest
// application and resident class, not per node.
func (ctx *Context) pairing(j *job.Job, residents []*RunningJob) compatProfile {
	cfg := ctx.Share
	score := 1.0
	var buf [4]interference.Load // NamedRates keeps no reference to loads
	loads := append(buf[:0], interference.Load{App: j.App.Name, Stress: j.App.Stress})
	for _, r := range residents {
		s := app.Complementarity(j.App.Stress, r.Job.App.Stress)
		if s < score {
			score = s
		}
		loads = append(loads, interference.Load{App: r.Job.App.Name, Stress: r.Job.App.Stress})
	}
	p := compatProfile{score: score}
	if score >= cfg.MinComplementarity {
		rates := ctx.Inter.NamedRates(loads)
		p.ok = true
		p.rate = rates[0]
		if cfg.MinEstimatedRate > 0 {
			for _, r := range rates {
				if r < cfg.MinEstimatedRate {
					p.ok = false
					break
				}
			}
		}
	}
	return p
}

// hostRateWith returns the memoized interference-model progress rate of a
// running host job when guest j lands beside it.
func (ctx *Context) hostRateWith(r *RunningJob, j *job.Job) float64 {
	key := compatKey{guest: r.Job.App.Name, residents: j.App.Name}
	if rate, ok := ctx.hostRateIdx[key]; ok {
		return rate
	}
	rates := ctx.Inter.NamedRates([]interference.Load{
		{App: r.Job.App.Name, Stress: r.Job.App.Stress},
		{App: j.App.Name, Stress: j.App.Stress},
	})
	if ctx.hostRateIdx == nil {
		ctx.hostRateIdx = make(map[compatKey]float64)
	}
	ctx.hostRateIdx[key] = rates[0]
	return rates[0]
}

// residents returns the running jobs occupying node ni, in ctx.Running
// order, using a lazily built index over ctx.Running with one backing
// array for all nodes. Callers must not append to the returned slice.
func (ctx *Context) residents(ni int) []*RunningJob {
	if ctx.residentOff == nil {
		// Count per node, turn the counts into end offsets, then fill
		// back to front so each node's run ends at its start offset.
		n := ctx.Cluster.Size()
		off := make([]int32, n+1)
		for _, r := range ctx.Running {
			for _, ni := range r.NodeIDs {
				off[ni]++
			}
		}
		for i := 1; i < n; i++ {
			off[i] += off[i-1]
		}
		off[n] = off[n-1]
		idx := make([]*RunningJob, off[n])
		for k := len(ctx.Running) - 1; k >= 0; k-- {
			r := ctx.Running[k]
			for i := len(r.NodeIDs) - 1; i >= 0; i-- {
				ni := r.NodeIDs[i]
				off[ni]--
				idx[off[ni]] = r
			}
		}
		ctx.residentIdx, ctx.residentOff = idx, off
	}
	lo, hi := ctx.residentOff[ni], ctx.residentOff[ni+1]
	return ctx.residentIdx[lo:hi:hi]
}

// idleNodes returns the idle schedulable nodes, ascending, fetched from the
// cluster once per pass (the cluster is read-only while a policy runs).
// Callers must not modify the returned slice.
func (ctx *Context) idleNodes() []int {
	if ctx.idle == nil {
		ctx.idle = ctx.Cluster.IdleNodes()
		if ctx.idle == nil {
			ctx.idle = []int{}
		}
	}
	return ctx.idle
}

// Policy decides which queued jobs start now.
type Policy interface {
	// Name returns the policy's registry name.
	Name() string
	// Schedule returns start decisions in commit order. Implementations
	// must not mutate the cluster; they simulate their own commits on
	// scratch state derived from ctx.
	Schedule(ctx *Context) []Decision
}

// New constructs a policy by registry name: "fcfs", "firstfit", "easy",
// "conservative", "sharefirstfit", "sharebackfill", "shareconservative".
// The share configuration applies to the sharing policies and is ignored by
// the baselines.
func New(name string, share ShareConfig) (Policy, error) {
	switch name {
	case "fcfs":
		return FCFS{}, nil
	case "firstfit":
		return FirstFit{}, nil
	case "easy":
		return EASY{}, nil
	case "conservative":
		return Conservative{}, nil
	case "sharefirstfit":
		return ShareFirstFit{Config: share}, nil
	case "sharebackfill":
		return ShareBackfill{Config: share}, nil
	case "shareconservative":
		return ShareConservative{Config: share}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q", name)
	}
}

// Names returns the registry names of all policies, baselines first.
func Names() []string {
	return []string{
		"fcfs", "firstfit", "easy", "conservative",
		"sharefirstfit", "sharebackfill", "shareconservative",
	}
}

// predictedEnd returns the completion estimate a policy should plan with,
// honoring the inflation-accounting switch.
func predictedEnd(r *RunningJob, share ShareConfig) des.Time {
	if share.Enabled && share.InflationAccounting {
		return r.PredictedEnd
	}
	return r.NominalEnd
}

// fitsMachine reports whether the job could ever run on this machine: node
// request within the cluster and per-node memory within node capacity. The
// simulator rejects unfittable jobs at submission; policies re-check so they
// stay robust against foreign queue contents (and FCFS does not block its
// queue forever behind an impossible head).
func fitsMachine(ctx *Context, j *job.Job) bool {
	cfg := ctx.Cluster.Config()
	return j.Nodes <= cfg.Nodes && j.App.MemPerNodeMB <= cfg.MemoryPerNodeMB
}

// nodeMarks is a per-pass membership set over dense node indices (claimed
// nodes, excluded hosts). A slice beats a map here: scheduling passes probe
// and copy these sets in the hottest loops, and node indices are dense.
type nodeMarks []bool

func newMarks(ctx *Context) nodeMarks { return make(nodeMarks, ctx.Cluster.Size()) }

func (m nodeMarks) clone() nodeMarks {
	out := make(nodeMarks, len(m))
	copy(out, m)
	return out
}

// idleCandidates returns the schedulable idle nodes minus exclusions, in
// locality-compact order when a topology is configured.
func idleCandidates(ctx *Context, exclude nodeMarks) []int {
	idle := ctx.idleNodes()
	out := make([]int, 0, len(idle))
	for _, ni := range idle {
		if !exclude[ni] {
			out = append(out, ni)
		}
	}
	if ctx.Topo != nil {
		out = ctx.Topo.CompactOrder(out)
	}
	return out
}

// pickIdle returns the first n idle node indices and true, or nil and false
// when fewer than n nodes are idle.
func pickIdle(ctx *Context, n int, exclude nodeMarks) ([]int, bool) {
	cand := idleCandidates(ctx, exclude)
	if len(cand) < n {
		return nil, false
	}
	return cand[:n], true
}

// shareCandidate is one co-allocatable node with its pairing quality.
type shareCandidate struct {
	node  int
	score float64
	rate  float64 // estimated progress rate for the incoming job
}

// hostGroup is the co-allocatable node set of one running host job. Grouping
// matters because a parallel job runs at the rate of its slowest node: a
// guest that fully covers a host slows it uniformly and wastes nothing,
// whereas a guest sitting on a fraction of a host's nodes drags the whole
// host down while the uncovered nodes idle along. Sharing strategies
// therefore prefer whole-host coverage.
type hostGroup struct {
	nodes    []shareCandidate
	score    float64 // worst pairing score across the group
	rate     float64 // worst estimated guest rate across the group
	fullHost bool    // group spans every node of the host job
}

// hostGroupsFor collects the co-allocation host groups for j from the
// pass's candidate table, best first when pairing-aware: full-host coverage
// ranks above partial, then pairing score, then first node for determinism.
// Groups follow ctx.Running order, a node shared by several hosts joins the
// first host's group, and a group keeps its host's node order.
func hostGroupsFor(ctx *Context, j *job.Job, exclude nodeMarks) []hostGroup {
	cfg := ctx.Share
	if !cfg.Enabled {
		return nil
	}
	t := ctx.shareTable()
	g := t.guest(ctx, j)
	if len(g.usable) == 0 {
		return nil
	}
	// Each usable node joins at most one group, so one backing array holds
	// every group's nodes.
	flat := make([]shareCandidate, 0, len(g.usable))
	groups := make([]hostGroup, 0, min(len(t.hosts), len(g.usable)))
	for _, h := range t.hosts {
		grp := hostGroup{score: 1, rate: 1}
		from := len(flat)
		for _, ni := range h.nodes {
			if t.seen[ni] || exclude[ni] {
				continue
			}
			cand, ok := g.at(t, ni)
			if !ok {
				continue
			}
			t.seen[ni] = true
			flat = append(flat, cand)
			if cand.score < grp.score {
				grp.score = cand.score
			}
			if cand.rate < grp.rate {
				grp.rate = cand.rate
			}
		}
		if len(flat) == from {
			continue
		}
		grp.nodes = flat[from:len(flat):len(flat)]
		grp.fullHost = len(grp.nodes) == len(h.job.NodeIDs)
		groups = append(groups, grp)
	}
	for _, c := range flat {
		t.seen[c.node] = false
	}
	if len(groups) == 0 {
		return nil
	}
	if cfg.PairingAware {
		slices.SortStableFunc(groups, func(a, b hostGroup) int {
			if a.fullHost != b.fullHost {
				if a.fullHost {
					return -1
				}
				return 1
			}
			if c := cmp.Compare(b.score, a.score); c != 0 {
				return c
			}
			return cmp.Compare(a.nodes[0].node, b.nodes[0].node)
		})
	}
	return groups
}

// freeLayerOn returns a fully free layer on node ni. It prefers the highest
// layer index (secondary threads) so co-allocated jobs land on SMT siblings,
// matching the paper's oversubscription mechanism.
func freeLayerOn(c *cluster.Cluster, ni int) (cluster.Layer, bool) {
	tpc := c.Config().ThreadsPerCore
	for l := tpc - 1; l >= 0; l-- {
		if c.LayerFree(ni, cluster.Layer(l)) {
			return cluster.Layer(l), true
		}
	}
	return 0, false
}
