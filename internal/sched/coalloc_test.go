package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/interference"
	"repro/internal/job"
	"repro/internal/topology"
)

// randomShareState builds a seeded mid-run cluster state for the
// differential tests: layer and exclusive residents on arbitrary nodes,
// shared nodes up to three residents, residents that leave little free
// memory, drained nodes (with and without residents), down nodes, the odd
// allocation with no running record, and a queue of mixed shapes.
func randomShareState(rng *rand.Rand) *Context {
	tpc := 2 + rng.Intn(2) // 3 layers allow three residents per node
	c := cluster.New(cluster.Config{
		Nodes: 12 + rng.Intn(28), CoresPerNode: 2, ThreadsPerCore: tpc, MemoryPerNodeMB: 128 * 1024,
	})
	cat := app.Catalogue()
	// Two catalogue names with other memory sizes: the table keys guests by
	// (application, memory per node).
	cat = append(cat, withMem(cat[0], 100*1024), withMem(cat[1], 8*1024))
	ctx := &Context{
		Now:     des.Time(rng.Intn(1000)),
		Cluster: c,
		Inter:   interference.Default(),
	}

	id := cluster.JobID(1)
	for k := 0; k < rng.Intn(40); k++ {
		a := cat[rng.Intn(len(cat))]
		nodes := 1 + rng.Intn(5)
		exclusive := rng.Intn(4) == 0
		layer := cluster.Layer(rng.Intn(tpc))
		var cand []int
		for _, ni := range rng.Perm(c.Size()) {
			n := c.Node(ni)
			if exclusive && n.Idle() || !exclusive && c.LayerFree(ni, layer) {
				cand = append(cand, ni)
			}
		}
		if len(cand) < nodes {
			continue
		}
		cand = cand[:nodes]
		mem := a.MemPerNodeMB
		if rng.Intn(3) == 0 {
			mem = rng.Intn(128 * 1024) // may leave little memory behind
		}
		var p cluster.Placement
		if exclusive {
			p = c.ExclusivePlacement(id, cand, mem)
		} else {
			p = c.LayerPlacement(id, cand, layer, mem)
		}
		if c.Allocate(p) != nil {
			continue
		}
		j := &job.Job{ID: id, Name: "run", App: a, Nodes: nodes,
			ReqWalltime: des.Duration(600 + rng.Intn(5000)), TrueRuntime: 600, Submit: 0}
		j.Start(0)
		id++
		if rng.Intn(25) == 0 {
			continue // busy with no running record: a foreign allocation
		}
		nominal := ctx.Now + des.Time(rng.Intn(5000))
		predicted := nominal + des.Time(rng.Intn(2000))
		if rng.Intn(10) == 0 {
			predicted = ctx.Now // finishing as we plan
		}
		ctx.Running = append(ctx.Running, &RunningJob{
			Job: j, NodeIDs: cand, Exclusive: exclusive,
			NominalEnd: nominal, PredictedEnd: predicted, Rate: 0.3 + 0.7*rng.Float64(),
		})
	}
	for ni := 0; ni < c.Size(); ni++ {
		switch rng.Intn(12) {
		case 0:
			c.SetDrained(ni, true)
		case 1:
			if c.Node(ni).Idle() {
				c.SetDown(ni, true)
			}
		}
	}
	// Running order is by job ID in the engine; shuffle sometimes so group
	// order and first-claim ties are exercised beyond that.
	if rng.Intn(3) == 0 {
		rng.Shuffle(len(ctx.Running), func(a, b int) {
			ctx.Running[a], ctx.Running[b] = ctx.Running[b], ctx.Running[a]
		})
	}
	for k := 0; k < 1+rng.Intn(25); k++ {
		a := cat[rng.Intn(len(cat))]
		wall := des.Duration(300 + rng.Intn(6000))
		ctx.Queue = append(ctx.Queue, &job.Job{
			ID: id, Name: "q", App: a, Nodes: 1 + rng.Intn(10),
			ReqWalltime: wall, TrueRuntime: wall, Submit: des.Time(k),
		})
		id++
	}
	if rng.Intn(4) == 0 {
		topo := topology.Topology{Groups: (c.Size() + 3) / 4, NodesPerGroup: 4, UplinkPenalty: 0.6}
		ctx.Topo = &topo
	}
	return ctx
}

func withMem(a app.Model, memMB int) app.Model {
	a.MemPerNodeMB = memMB
	return a
}

// randomShareConfig varies every switch the candidate scan depends on.
func randomShareConfig(rng *rand.Rand) ShareConfig {
	cfg := DefaultShareConfig()
	cfg.MaxDegree = 2 + rng.Intn(2)
	cfg.PairingAware = rng.Intn(2) == 0
	cfg.PreferShared = rng.Intn(4) != 0
	cfg.InflationAccounting = rng.Intn(4) != 0
	cfg.MinComplementarity = []float64{0, 0.2, 0.4, 0.6}[rng.Intn(4)]
	if rng.Intn(2) == 0 {
		cfg.MinEstimatedRate = 0.3 + 0.5*rng.Float64()
	}
	return cfg
}

// freshCopy returns ctx with share config cfg and no per-pass caches, so
// the production and reference runs share nothing they compute.
func freshCopy(ctx *Context, cfg ShareConfig) *Context {
	return &Context{Now: ctx.Now, Cluster: ctx.Cluster, Queue: ctx.Queue, Running: ctx.Running,
		Inter: ctx.Inter, Share: cfg, Topo: ctx.Topo}
}

const differentialStates = 400

// TestHostGroupsAndPlaceSharedMatchReference checks, per queued job and
// random exclusion set, that the candidate table yields exactly the groups
// and placements of the per-job node scan.
func TestHostGroupsAndPlaceSharedMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	placed, rejected := 0, 0
	for s := 0; s < differentialStates; s++ {
		base := randomShareState(rng)
		cfg := randomShareConfig(rng)
		ctx, ref := freshCopy(base, cfg), freshCopy(base, cfg)
		for _, j := range base.Queue {
			exclude := newMarks(ctx)
			for ni := range exclude {
				exclude[ni] = rng.Intn(5) == 0
			}
			before := exclude.clone()
			got := hostGroupsFor(ctx, j, exclude)
			want := refHostGroupsFor(ref, j, exclude)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("state %d job %d: hostGroupsFor = %+v, reference %+v", s, j.ID, got, want)
			}
			dec, ok := placeShared(ctx, j, exclude)
			if !reflect.DeepEqual(exclude, before) {
				t.Fatalf("state %d job %d: placeShared modified its exclusions", s, j.ID)
			}
			wantDec, wantOK := refPlaceShared(ref, j, exclude.clone())
			if ok != wantOK || !reflect.DeepEqual(dec, wantDec) {
				t.Fatalf("state %d job %d: placeShared = %+v %v, reference %+v %v",
					s, j.ID, dec, ok, wantDec, wantOK)
			}
			if ok {
				placed++
			} else {
				rejected++
			}
		}
	}
	t.Logf("%d placements, %d rejections", placed, rejected)
	// The states must exercise both outcomes, or the check proves little.
	if placed < 100 || rejected < 100 {
		t.Fatalf("weak coverage: %d placed, %d rejected", placed, rejected)
	}
}

// TestSharingPoliciesMatchReference checks every sharing policy's decisions
// against the same policy run over the reference scan.
func TestSharingPoliciesMatchReference(t *testing.T) {
	for _, name := range []string{"sharefirstfit", "sharebackfill", "shareconservative"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			shared, started := 0, 0
			for s := 0; s < differentialStates; s++ {
				base := randomShareState(rng)
				cfg := randomShareConfig(rng)
				pol, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := pol.Schedule(freshCopy(base, cfg))
				want := refSchedule(name, cfg, freshCopy(base, cfg))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("state %d: %s decisions differ from the reference\n got %s\nwant %s",
						s, name, describe(got), describe(want))
				}
				for _, d := range got {
					started++
					if d.Shared {
						shared++
					}
				}
			}
			t.Logf("%d starts, %d shared", started, shared)
			if shared < 50 || started-shared < 50 {
				t.Fatalf("weak coverage: %d shared and %d exclusive starts", shared, started-shared)
			}
		})
	}
}

func describe(ds []Decision) string {
	out := ""
	for _, d := range ds {
		out += fmt.Sprintf("[job %d nodes %v shared=%v rate=%g] ",
			d.Job.ID, d.Placement.NodeIDs(), d.Shared, d.EstimatedRate)
	}
	return out
}
