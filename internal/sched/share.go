package sched

import (
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
)

// ShareFirstFit extends first fit with co-allocation: a queued job may be
// placed onto the free hardware-thread layer of nodes already running a
// compatible job, oversubscribing cores through SMT. Pairing-aware candidate
// ranking (complementary stress vectors first) is what turns oversubscription
// into an efficiency gain instead of uniform slowdown.
type ShareFirstFit struct {
	// Config tunes co-allocation. A disabled config degrades the policy to
	// plain FirstFit.
	Config ShareConfig
}

// Name implements Policy.
func (ShareFirstFit) Name() string { return "sharefirstfit" }

// ShareConfig exposes the policy's sharing configuration to the simulator.
func (p ShareFirstFit) ShareConfig() ShareConfig { return p.Config }

// Schedule implements Policy.
func (p ShareFirstFit) Schedule(ctx *Context) []Decision {
	ctx = ctx.forPass(p.Config)
	if !p.Config.Enabled {
		return FirstFit{}.Schedule(ctx)
	}
	var out []Decision
	claimed := newMarks(ctx)
	slots := slotBound(ctx)
	memo := newFailMemo()
	for _, j := range ctx.Queue {
		if slots <= 0 {
			break // machine exhausted; nothing later can start either
		}
		if !fitsMachine(ctx, j) || j.Nodes > slots || memo.knownToFail(j) {
			continue // cheap bounds: cannot possibly fit this pass
		}
		dec, ok := placeShared(ctx, j, claimed)
		if !ok {
			memo.recordFail(j)
			continue // first fit: skip and try the next job
		}
		for _, np := range dec.Placement.Nodes {
			claimed[np.Node] = true
		}
		slots -= len(dec.Placement.Nodes)
		out = append(out, dec)
	}
	return out
}

// failMemo prunes repeated placement attempts within one scheduling pass.
// Capacity only shrinks as a pass claims nodes, so once a placement for an
// application failed at n nodes, every later attempt for the same
// application with ≥ n nodes must fail too.
type failMemo struct {
	minFail map[string]int
}

func newFailMemo() *failMemo { return &failMemo{minFail: map[string]int{}} }

func (m *failMemo) knownToFail(j *job.Job) bool {
	n, ok := m.minFail[j.App.Name]
	return ok && j.Nodes >= n
}

func (m *failMemo) recordFail(j *job.Job) {
	if n, ok := m.minFail[j.App.Name]; !ok || j.Nodes < n {
		m.minFail[j.App.Name] = j.Nodes
	}
}

// slotBound returns an upper bound on the node slots a sharing pass can
// still hand out: idle nodes plus busy nodes with a free layer within the
// sharing degree. It exists so deep queues cost an integer compare per
// hopeless job instead of a full candidate scan.
func slotBound(ctx *Context) int {
	return ctx.Cluster.CountIdle() + ctx.shareTable().sharable
}

// ShareBackfill is co-allocation-aware EASY backfill. The queue head's
// reservation is planned on whole-node capacity exactly as in EASY; backfill
// candidates may additionally be co-allocated onto compatible running jobs.
// Because a co-runner slows its host job — postponing the node's release —
// the policy re-verifies the head's reservation against interference-inflated
// completion estimates before committing any co-allocation
// (Config.InflationAccounting; disabling it is the ablation that breaks the
// EASY no-delay guarantee).
type ShareBackfill struct {
	// Config tunes co-allocation. A disabled config degrades the policy to
	// plain EASY.
	Config ShareConfig
}

// Name implements Policy.
func (ShareBackfill) Name() string { return "sharebackfill" }

// ShareConfig exposes the policy's sharing configuration to the simulator.
func (p ShareBackfill) ShareConfig() ShareConfig { return p.Config }

// Schedule implements Policy.
func (p ShareBackfill) Schedule(ctx *Context) []Decision {
	ctx = ctx.forPass(p.Config)
	if !p.Config.Enabled {
		return EASY{}.Schedule(ctx)
	}
	return scheduleShare(ctx, 1)
}

// ShareConservative is co-allocation-aware conservative backfill: every
// blocked job gets a reservation, and a co-allocation is admitted only if
// the interference-inflated release postponements it causes delay none of
// them. It trades ShareBackfill's aggressiveness for bounded queue-jumping,
// exactly as Conservative does for EASY.
type ShareConservative struct {
	// Config tunes co-allocation. A disabled config degrades the policy to
	// plain Conservative.
	Config ShareConfig
}

// Name implements Policy.
func (ShareConservative) Name() string { return "shareconservative" }

// ShareConfig exposes the policy's sharing configuration to the simulator.
func (p ShareConservative) ShareConfig() ShareConfig { return p.Config }

// Schedule implements Policy.
func (p ShareConservative) Schedule(ctx *Context) []Decision {
	ctx = ctx.forPass(p.Config)
	if !p.Config.Enabled {
		return Conservative{}.Schedule(ctx)
	}
	return scheduleShare(ctx, len(ctx.Queue))
}

// scheduleShare is the sharing-backfill skeleton: reservations for the
// first maxReservations blocked jobs on whole-node capacity, immediate
// starts (exclusive or co-allocated) for everything that provably delays no
// reservation.
func scheduleShare(ctx *Context, maxReservations int) []Decision {
	var out []Decision
	claimed := newMarks(ctx)
	// endOverride records release postponements caused by co-allocations
	// committed in this pass.
	endOverride := map[cluster.JobID]des.Time{}

	profile := buildNodeProfile(ctx, claimed, endOverride)
	var shadows []des.Time // reservation start times, in queue order
	slots := slotBound(ctx)
	memo := newFailMemo()

	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue
		}
		blockedBefore := len(shadows) > 0
		if blockedBefore && slots <= 0 && len(shadows) >= maxReservations {
			break // no start slots and no reservation budget left
		}
		if blockedBefore && (j.Nodes > slots || memo.knownToFail(j)) {
			// Cannot start this pass; it may still deserve a reservation.
			if len(shadows) < maxReservations {
				if start, ok := profile.FindStart(j.Nodes, j.ReqWalltime); ok {
					shadows = append(shadows, start)
					profile.Reserve(start, j.ReqWalltime, j.Nodes)
				}
			}
			continue
		}

		if dec, ok := placeGuarded(ctx, j, claimed, endOverride, shadows); ok {
			// Idle nodes consumed now must not break any reservation: the
			// job (or its placement's idle part) must fit in the reserved
			// profile for its whole walltime starting immediately.
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
			commitShare(ctx, dec, claimed, endOverride)
			slots -= len(dec.Placement.Nodes)
			continue
		}

		// Blocked: plan a reservation while the budget allows.
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

// placeGuarded attempts a sharing-aware placement for j. With inflation
// accounting on, a co-allocation is rejected if slowing the host jobs would
// postpone a node release past any planned reservation start in shadows.
// Rejected host nodes are excluded and the placement is retried, so a guest
// can still land on hosts with walltime slack.
func placeGuarded(ctx *Context, j *job.Job, claimed nodeMarks,
	endOverride map[cluster.JobID]des.Time, shadows []des.Time) (Decision, bool) {

	excluded := claimed // copied before the first exclusion
	for attempt := 0; attempt <= ctx.Cluster.Size(); attempt++ {
		dec, ok := placeShared(ctx, j, excluded)
		if !ok {
			return Decision{}, false
		}
		if !dec.Shared || len(shadows) == 0 || !ctx.Share.InflationAccounting {
			return dec, true
		}
		// Find hosts whose postponed release would break a reservation:
		// their release was due at or before some shadow time and the
		// co-allocation pushes it past.
		offender := -1
	scan:
		for _, np := range dec.Placement.Nodes {
			for _, r := range ctx.residents(np.Node) {
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
		if attempt == 0 {
			excluded = claimed.clone()
		}
		excluded[offender] = true
	}
	return Decision{}, false
}

// commitShare records the local effects of a decision within this scheduling
// pass: claimed nodes and postponed host releases.
func commitShare(ctx *Context, dec Decision, claimed nodeMarks,
	endOverride map[cluster.JobID]des.Time) {
	for _, np := range dec.Placement.Nodes {
		claimed[np.Node] = true
		if dec.Shared {
			for _, r := range ctx.residents(np.Node) {
				newEnd := inflatedEnd(ctx, r, dec.Job, endOverride)
				if cur, ok := endOverride[r.Job.ID]; !ok || newEnd > cur {
					endOverride[r.Job.ID] = newEnd
				}
			}
		}
	}
}

// effectiveEnd returns a running job's planning end time, honoring both the
// inflation-accounting switch and any postponement from this pass.
func effectiveEnd(r *RunningJob, share ShareConfig, endOverride map[cluster.JobID]des.Time) des.Time {
	end := predictedEnd(r, share)
	if o, ok := endOverride[r.Job.ID]; ok && o > end {
		end = o
	}
	return end
}

// inflatedEnd estimates when host r will release its nodes if job j is
// co-allocated beside it: the host's remaining requested work divided by its
// new (slower) progress rate.
func inflatedEnd(ctx *Context, r *RunningJob, j *job.Job, endOverride map[cluster.JobID]des.Time) des.Time {
	oldEnd := effectiveEnd(r, ctx.Share, endOverride)
	oldRate := r.Rate
	if oldRate <= 0 {
		oldRate = 1
	}
	remaining := float64(oldEnd-ctx.Now) * oldRate
	newRate := ctx.hostRateWith(r, j)
	if newRate < oldRate {
		// Synchronized parallel semantics: the host runs at the slower of
		// its current rate and the newly contended node's rate.
		oldRate = newRate
	}
	if oldRate <= 0 {
		oldRate = 1e-3
	}
	return ctx.Now + des.Duration(remaining/oldRate)
}

// placeShared builds a sharing-aware placement for j from co-allocation
// host groups and idle nodes outside exclude, ordered by the PreferShared
// setting. Whole host groups are taken before partial ones so guests cover
// hosts fully whenever possible (see hostGroup). exclude is not modified.
//
// The slot list it fills is exactly the usable co-allocation nodes plus the
// idle nodes, minus exclude, so it rejects j by that count before building
// any group: the count tells whether j.Nodes slots exist as surely as
// building them would.
func placeShared(ctx *Context, j *job.Job, exclude nodeMarks) (Decision, bool) {
	if freeSlots(ctx, j, exclude) < j.Nodes {
		return Decision{}, false
	}
	groups := hostGroupsFor(ctx, j, exclude)
	idle := idleCandidates(ctx, exclude)

	type slot struct {
		node   int
		shared bool
		rate   float64
	}
	slots := make([]slot, 0, j.Nodes)
	need := func() int { return j.Nodes - len(slots) }
	takenGroup := make([]bool, len(groups))

	// Whole groups that fit entirely within the remaining need.
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
	// Partial fills from remaining groups (last resort: partially covering
	// a host wastes its uncovered nodes).
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

	p := cluster.Placement{Job: j.ID, Nodes: make([]cluster.NodePlacement, 0, j.Nodes)}
	rate := 1.0
	shared := false
	for _, s := range slots {
		layer := cluster.PrimaryLayer
		if s.shared {
			l, ok := freeLayerOn(ctx.Cluster, s.node)
			if !ok {
				return Decision{}, false // raced within pass; should not happen
			}
			layer = l
			shared = true
			if s.rate < rate {
				rate = s.rate
			}
		}
		p.Nodes = append(p.Nodes, cluster.NodePlacement{
			Node:     s.node,
			Threads:  ctx.Cluster.LayerThreads(s.node, layer),
			MemoryMB: j.App.MemPerNodeMB,
		})
	}
	return Decision{Job: j, Placement: p, Shared: shared, EstimatedRate: rate}, true
}

// freeSlots counts the nodes placeShared can fill for j: the idle nodes and,
// with sharing on, the usable co-allocation nodes, minus exclude.
func freeSlots(ctx *Context, j *job.Job, exclude nodeMarks) int {
	n := 0
	for _, ni := range ctx.idleNodes() {
		if !exclude[ni] {
			n++
		}
	}
	if !ctx.Share.Enabled {
		return n
	}
	for _, ni := range ctx.shareTable().guest(ctx, j).usable {
		if !exclude[ni] {
			n++
		}
	}
	return n
}

// countIdleNodes counts the placement's nodes that are currently idle.
func countIdleNodes(c *cluster.Cluster, p cluster.Placement) int {
	k := 0
	for _, np := range p.Nodes {
		if c.Node(np.Node).Idle() {
			k++
		}
	}
	return k
}
