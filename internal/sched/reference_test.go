package sched

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
)

// This file keeps the sharing policies' per-job candidate scan as it was
// before the per-pass candidate table: every queued job probes every node
// of every running job, residents come from a linear scan of ctx.Running,
// and the capacity profiles are built through maps. The differential tests
// in coalloc_test.go and profile_test.go check the production code against
// it decision for decision.

// refResidents returns the running jobs on node ni by scanning ctx.Running.
func refResidents(ctx *Context, ni int) []*RunningJob {
	var out []*RunningJob
	for _, r := range ctx.Running {
		for _, n := range r.NodeIDs {
			if n == ni {
				out = append(out, r)
			}
		}
	}
	return out
}

// refNodeUsableFor reports whether node ni can host j as a co-runner and, if
// so, returns the pairing score and the guest's estimated progress rate.
func refNodeUsableFor(ctx *Context, j *job.Job, ni int, exclude nodeMarks) (shareCandidate, bool) {
	cfg := ctx.Share
	c := ctx.Cluster
	if exclude[ni] {
		return shareCandidate{}, false
	}
	n := c.Node(ni)
	if n.Idle() || !n.Available() || n.SharingDegree() >= cfg.MaxDegree ||
		n.MemFreeMB() < j.App.MemPerNodeMB {
		return shareCandidate{}, false
	}
	if _, ok := freeLayerOn(c, ni); !ok {
		return shareCandidate{}, false
	}
	residents := refResidents(ctx, ni)
	if len(residents) == 0 {
		return shareCandidate{}, false
	}
	p := ctx.pairing(j, residents)
	if !p.ok {
		return shareCandidate{}, false
	}
	return shareCandidate{node: ni, score: p.score, rate: p.rate}, true
}

// refHostGroupsFor collects the co-allocation host groups for j by probing
// every node of every running job.
func refHostGroupsFor(ctx *Context, j *job.Job, exclude nodeMarks) []hostGroup {
	cfg := ctx.Share
	if !cfg.Enabled {
		return nil
	}
	var groups []hostGroup
	seen := newMarks(ctx)
	for _, r := range ctx.Running {
		g := hostGroup{score: 1, rate: 1}
		for _, ni := range r.NodeIDs {
			if seen[ni] {
				continue
			}
			cand, ok := refNodeUsableFor(ctx, j, ni, exclude)
			if !ok {
				continue
			}
			seen[ni] = true
			g.nodes = append(g.nodes, cand)
			if cand.score < g.score {
				g.score = cand.score
			}
			if cand.rate < g.rate {
				g.rate = cand.rate
			}
		}
		if len(g.nodes) == 0 {
			continue
		}
		g.fullHost = len(g.nodes) == len(r.NodeIDs)
		groups = append(groups, g)
	}
	if cfg.PairingAware {
		sort.SliceStable(groups, func(a, b int) bool {
			if groups[a].fullHost != groups[b].fullHost {
				return groups[a].fullHost
			}
			if groups[a].score != groups[b].score {
				return groups[a].score > groups[b].score
			}
			return groups[a].nodes[0].node < groups[b].nodes[0].node
		})
	}
	return groups
}

// refPlaceShared builds the placement from fully built groups and the idle
// list, with no early rejection, and marks the nodes it uses in claimed.
func refPlaceShared(ctx *Context, j *job.Job, claimed nodeMarks) (Decision, bool) {
	groups := refHostGroupsFor(ctx, j, claimed)
	var idle []int
	for _, ni := range ctx.Cluster.IdleNodes() {
		if !claimed[ni] {
			idle = append(idle, ni)
		}
	}
	if ctx.Topo != nil {
		idle = ctx.Topo.CompactOrder(idle)
	}

	type slot struct {
		node   int
		shared bool
		rate   float64
	}
	var slots []slot
	need := func() int { return j.Nodes - len(slots) }
	takenGroup := make([]bool, len(groups))
	addWholeGroups := func() {
		for gi, g := range groups {
			if takenGroup[gi] || len(g.nodes) > need() {
				continue
			}
			for _, c := range g.nodes {
				slots = append(slots, slot{c.node, true, c.rate})
			}
			takenGroup[gi] = true
		}
	}
	addPartialGroups := func() {
		for gi, g := range groups {
			if takenGroup[gi] {
				continue
			}
			for _, c := range g.nodes {
				if need() == 0 {
					return
				}
				slots = append(slots, slot{c.node, true, c.rate})
			}
			takenGroup[gi] = true
		}
	}
	addIdle := func() {
		for _, ni := range idle {
			if need() == 0 {
				return
			}
			slots = append(slots, slot{ni, false, 1})
		}
	}
	if ctx.Share.PreferShared {
		addWholeGroups()
		addIdle()
		addPartialGroups()
	} else {
		addIdle()
		addWholeGroups()
		addPartialGroups()
	}
	if len(slots) < j.Nodes {
		return Decision{}, false
	}
	slots = slots[:j.Nodes]

	p := cluster.Placement{Job: j.ID}
	rate := 1.0
	shared := false
	for _, s := range slots {
		layer := cluster.PrimaryLayer
		if s.shared {
			l, ok := freeLayerOn(ctx.Cluster, s.node)
			if !ok {
				return Decision{}, false
			}
			layer = l
			shared = true
			if s.rate < rate {
				rate = s.rate
			}
		}
		threads := make([]int, 0, ctx.Cluster.Config().CoresPerNode)
		for core := 0; core < ctx.Cluster.Config().CoresPerNode; core++ {
			threads = append(threads, core*ctx.Cluster.Config().ThreadsPerCore+int(layer))
		}
		p.Nodes = append(p.Nodes, cluster.NodePlacement{
			Node: s.node, Threads: threads, MemoryMB: j.App.MemPerNodeMB,
		})
		claimed[s.node] = true
	}
	return Decision{Job: j, Placement: p, Shared: shared, EstimatedRate: rate}, true
}

// refPlaceGuarded is placeGuarded over refPlaceShared, with a fresh copy of
// the exclusions per attempt.
func refPlaceGuarded(ctx *Context, j *job.Job, claimed nodeMarks,
	endOverride map[cluster.JobID]des.Time, shadows []des.Time) (Decision, bool) {

	excluded := claimed.clone()
	for attempt := 0; attempt <= ctx.Cluster.Size(); attempt++ {
		dec, ok := refPlaceShared(ctx, j, excluded.clone())
		if !ok {
			return Decision{}, false
		}
		if !dec.Shared || len(shadows) == 0 || !ctx.Share.InflationAccounting {
			return dec, true
		}
		offender := -1
	scan:
		for _, np := range dec.Placement.Nodes {
			for _, r := range refResidents(ctx, np.Node) {
				oldEnd := effectiveEnd(r, ctx.Share, endOverride)
				newEnd := inflatedEnd(ctx, r, j, endOverride)
				if newEnd <= oldEnd {
					continue
				}
				for _, shadow := range shadows {
					if oldEnd <= shadow && newEnd > shadow {
						offender = np.Node
						break scan
					}
				}
			}
		}
		if offender == -1 {
			return dec, true
		}
		excluded[offender] = true
	}
	return Decision{}, false
}

// refCommitShare is commitShare over refResidents.
func refCommitShare(ctx *Context, dec Decision, claimed nodeMarks,
	endOverride map[cluster.JobID]des.Time) {
	for _, np := range dec.Placement.Nodes {
		claimed[np.Node] = true
		if dec.Shared {
			for _, r := range refResidents(ctx, np.Node) {
				newEnd := inflatedEnd(ctx, r, dec.Job, endOverride)
				if cur, ok := endOverride[r.Job.ID]; !ok || newEnd > cur {
					endOverride[r.Job.ID] = newEnd
				}
			}
		}
	}
}

// refSlotBound counts idle nodes plus busy nodes with a free layer within
// the sharing degree straight from the cluster.
func refSlotBound(ctx *Context) int {
	c := ctx.Cluster
	bound := c.CountIdle()
	for _, ni := range c.BusyFreeLayerNodes() {
		if c.Node(ni).SharingDegree() < ctx.Share.MaxDegree {
			bound++
		}
	}
	return bound
}

// refScheduleShare is scheduleShare over the reference pieces.
func refScheduleShare(ctx *Context, maxReservations int) []Decision {
	var out []Decision
	claimed := newMarks(ctx)
	endOverride := map[cluster.JobID]des.Time{}
	profile := refProfileWith(ctx, claimed, endOverride)
	var shadows []des.Time
	slots := refSlotBound(ctx)
	memo := newFailMemo()

	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue
		}
		blockedBefore := len(shadows) > 0
		if blockedBefore && slots <= 0 && len(shadows) >= maxReservations {
			break
		}
		if blockedBefore && (j.Nodes > slots || memo.knownToFail(j)) {
			if len(shadows) < maxReservations {
				if start, ok := profile.FindStart(j.Nodes, j.ReqWalltime); ok {
					shadows = append(shadows, start)
					profile.Reserve(start, j.ReqWalltime, j.Nodes)
				}
			}
			continue
		}
		if dec, ok := refPlaceGuarded(ctx, j, claimed, endOverride, shadows); ok {
			idleCount := countIdleNodes(ctx.Cluster, dec.Placement)
			if idleCount > 0 {
				start, fits := profile.FindStart(idleCount, j.ReqWalltime)
				if !fits || start > ctx.Now {
					if !blockedBefore || len(shadows) < maxReservations {
						if s, ok := profile.FindStart(j.Nodes, j.ReqWalltime); ok {
							shadows = append(shadows, s)
							profile.Reserve(s, j.ReqWalltime, j.Nodes)
						}
					}
					continue
				}
				profile.Reserve(ctx.Now, j.ReqWalltime, idleCount)
			}
			out = append(out, dec)
			refCommitShare(ctx, dec, claimed, endOverride)
			slots -= len(dec.Placement.Nodes)
			continue
		}
		if len(shadows) < maxReservations {
			if start, ok := profile.FindStart(j.Nodes, j.ReqWalltime); ok {
				shadows = append(shadows, start)
				profile.Reserve(start, j.ReqWalltime, j.Nodes)
			}
			continue
		}
		memo.recordFail(j)
	}
	return out
}

// refShareFirstFit is ShareFirstFit's loop over refPlaceShared.
func refShareFirstFit(ctx *Context) []Decision {
	var out []Decision
	claimed := newMarks(ctx)
	slots := refSlotBound(ctx)
	memo := newFailMemo()
	for _, j := range ctx.Queue {
		if slots <= 0 {
			break
		}
		if !fitsMachine(ctx, j) || j.Nodes > slots || memo.knownToFail(j) {
			continue
		}
		dec, ok := refPlaceShared(ctx, j, claimed)
		if !ok {
			memo.recordFail(j)
			continue
		}
		slots -= len(dec.Placement.Nodes)
		out = append(out, dec)
	}
	return out
}

// refSchedule runs the reference of the named sharing policy with sharing
// enabled in cfg.
func refSchedule(name string, cfg ShareConfig, ctx *Context) []Decision {
	scoped := *ctx
	scoped.Share = cfg
	switch name {
	case "sharefirstfit":
		return refShareFirstFit(&scoped)
	case "sharebackfill":
		return refScheduleShare(&scoped, 1)
	case "shareconservative":
		return refScheduleShare(&scoped, len(ctx.Queue))
	}
	panic(fmt.Sprintf("refSchedule: %q is not a sharing policy", name))
}

// refNewProfile is NewProfile with the releases aggregated through a map.
func refNewProfile(now des.Time, freeNow int, releases []Release) *Profile {
	byTime := map[des.Time]int{}
	for _, r := range releases {
		if r.Nodes < 0 {
			panic(fmt.Sprintf("sched: release of %d nodes", r.Nodes))
		}
		if r.At <= now {
			freeNow += r.Nodes
			continue
		}
		byTime[r.At] += r.Nodes
	}
	times := make([]des.Time, 0, len(byTime)+1)
	for t := range byTime {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	p := &Profile{times: []des.Time{now}, free: []int{freeNow}}
	cum := freeNow
	for _, t := range times {
		cum += byTime[t]
		p.times = append(p.times, t)
		p.free = append(p.free, cum)
	}
	return p
}

// refBuildNodeProfile is the exclusive policies' map-based profile builder.
func refBuildNodeProfile(ctx *Context, claimed nodeMarks) *Profile {
	freeNow := 0
	for _, ni := range ctx.Cluster.IdleNodes() {
		if !claimed[ni] {
			freeNow++
		}
	}
	releaseAt := map[int]des.Time{}
	for _, r := range ctx.Running {
		end := predictedEnd(r, ctx.Share)
		for _, ni := range r.NodeIDs {
			if end > releaseAt[ni] {
				releaseAt[ni] = end
			}
		}
	}
	return refProfileFromReleases(ctx, freeNow, releaseAt)
}

// refProfileWith is the sharing policies' map-based profile builder.
func refProfileWith(ctx *Context, claimed nodeMarks, endOverride map[cluster.JobID]des.Time) *Profile {
	freeNow := 0
	for _, ni := range ctx.Cluster.IdleNodes() {
		if !claimed[ni] {
			freeNow++
		}
	}
	releaseAt := map[int]des.Time{}
	for _, r := range ctx.Running {
		end := effectiveEnd(r, ctx.Share, endOverride)
		for _, ni := range r.NodeIDs {
			if end > releaseAt[ni] {
				releaseAt[ni] = end
			}
		}
	}
	return refProfileFromReleases(ctx, freeNow, releaseAt)
}

func refProfileFromReleases(ctx *Context, freeNow int, releaseAt map[int]des.Time) *Profile {
	byTime := map[des.Time]int{}
	for _, end := range releaseAt {
		byTime[end]++
	}
	releases := make([]Release, 0, len(byTime))
	for t, n := range byTime {
		releases = append(releases, Release{At: t, Nodes: n})
	}
	return refNewProfile(ctx.Now, freeNow, releases)
}
