package sched

import (
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
)

// FCFS is strict first-come-first-served with standard (exclusive) node
// allocation: the queue head blocks everything behind it until it fits.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Schedule implements Policy.
func (FCFS) Schedule(ctx *Context) []Decision {
	ctx = ctx.forPass(ctx.Share)
	var out []Decision
	claimed := newMarks(ctx)
	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue // can never run anywhere; do not deadlock the queue
		}
		nodes, ok := pickIdle(ctx, j.Nodes, claimed)
		if !ok {
			break // strict FCFS: the head blocks
		}
		for _, ni := range nodes {
			claimed[ni] = true
		}
		out = append(out, exclusiveDecision(ctx, j, nodes))
	}
	return out
}

// FirstFit scans the whole queue and starts any job that fits on idle nodes,
// in queue order. Unlike backfill it plans no reservations, so large jobs
// can starve under sustained small-job load.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "firstfit" }

// Schedule implements Policy.
func (FirstFit) Schedule(ctx *Context) []Decision {
	ctx = ctx.forPass(ctx.Share)
	var out []Decision
	claimed := newMarks(ctx)
	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue
		}
		nodes, ok := pickIdle(ctx, j.Nodes, claimed)
		if !ok {
			continue // skip and try the next job
		}
		for _, ni := range nodes {
			claimed[ni] = true
		}
		out = append(out, exclusiveDecision(ctx, j, nodes))
	}
	return out
}

// EASY is aggressive backfilling: the queue head gets a reservation at the
// earliest time enough nodes drain, and later jobs may jump ahead only if
// their requested walltime provably does not delay that reservation.
type EASY struct{}

// Name implements Policy.
func (EASY) Name() string { return "easy" }

// Schedule implements Policy.
func (EASY) Schedule(ctx *Context) []Decision {
	return backfillExclusive(ctx, 1)
}

// Conservative backfilling gives every queued job a reservation, in queue
// order; a job may start now only when doing so honors all earlier
// reservations. Lower queue-jumping variance than EASY at some utilization
// cost.
type Conservative struct{}

// Name implements Policy.
func (Conservative) Name() string { return "conservative" }

// Schedule implements Policy.
func (Conservative) Schedule(ctx *Context) []Decision {
	return backfillExclusive(ctx, len(ctx.Queue))
}

// exclusiveDecision builds the standard whole-node allocation decision.
func exclusiveDecision(ctx *Context, j *job.Job, nodes []int) Decision {
	return Decision{
		Job:           j,
		Placement:     ctx.Cluster.ExclusivePlacement(j.ID, nodes, j.App.MemPerNodeMB),
		Shared:        false,
		EstimatedRate: 1,
	}
}

// backfillExclusive is the shared skeleton of EASY and Conservative:
// reservations for the first maxReservations blocked jobs, backfill for the
// rest. Every started job runs on exclusive whole nodes.
func backfillExclusive(ctx *Context, maxReservations int) []Decision {
	ctx = ctx.forPass(ctx.Share)
	var out []Decision
	claimed := newMarks(ctx)

	// The capacity profile sees a node as released when its last resident's
	// predicted end passes (with one job per node under exclusive policies,
	// that is simply the job's end).
	profile := buildNodeProfile(ctx, claimed, nil)

	reservations := 0
	for _, j := range ctx.Queue {
		if !fitsMachine(ctx, j) {
			continue
		}
		wall := j.ReqWalltime
		start, ok := profile.FindStart(j.Nodes, wall)
		if !ok {
			// Can never fit (request exceeds machine); skip.
			continue
		}
		if start <= ctx.Now {
			nodes, got := pickIdle(ctx, j.Nodes, claimed)
			if !got {
				// Profile says capacity exists but idle nodes disagree;
				// treat as blocked (can happen transiently when releases
				// land exactly now).
				if reservations < maxReservations {
					profile.Reserve(start, wall, j.Nodes)
					reservations++
				}
				continue
			}
			for _, ni := range nodes {
				claimed[ni] = true
			}
			profile.Reserve(ctx.Now, wall, j.Nodes)
			out = append(out, exclusiveDecision(ctx, j, nodes))
			continue
		}
		// Blocked: plan a reservation if the budget allows; once the budget
		// is exhausted, later jobs may only start immediately (EASY) —
		// their fit was already checked against all reservations.
		if reservations < maxReservations {
			profile.Reserve(start, wall, j.Nodes)
			reservations++
		}
	}
	return out
}

// buildNodeProfile constructs the whole-node availability profile from the
// idle nodes outside claimed and the running jobs' planning end times,
// including the release postponements in endOverride from this pass's
// co-allocations (nil for none).
func buildNodeProfile(ctx *Context, claimed nodeMarks, endOverride map[cluster.JobID]des.Time) *Profile {
	freeNow := 0
	for _, ni := range ctx.idleNodes() {
		if !claimed[ni] {
			freeNow++
		}
	}
	// A node shared by several jobs becomes a whole free node only when the
	// latest resident leaves. Zero marks a node no job releases.
	releaseAt := make([]des.Time, ctx.Cluster.Size())
	for _, r := range ctx.Running {
		end := effectiveEnd(r, ctx.Share, endOverride)
		for _, ni := range r.NodeIDs {
			if end > releaseAt[ni] {
				releaseAt[ni] = end
			}
		}
	}
	// Credit each releasing node to the first running job that sets its
	// release time, so there is one release per job rather than per node.
	releases := make([]Release, 0, len(ctx.Running))
	for _, r := range ctx.Running {
		end := effectiveEnd(r, ctx.Share, endOverride)
		n := 0
		for _, ni := range r.NodeIDs {
			if end > 0 && releaseAt[ni] == end {
				releaseAt[ni] = 0
				n++
			}
		}
		if n > 0 {
			releases = append(releases, Release{At: end, Nodes: n})
		}
	}
	return NewProfile(ctx.Now, freeNow, releases)
}
