package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/des"
)

func TestProfileFreeAt(t *testing.T) {
	p := NewProfile(0, 2, []Release{{At: 100, Nodes: 3}, {At: 200, Nodes: 1}})
	cases := []struct {
		t    des.Time
		want int
	}{
		{0, 2}, {99, 2}, {100, 5}, {150, 5}, {200, 6}, {1e9, 6},
	}
	for _, c := range cases {
		if got := p.FreeAt(c.t); got != c.want {
			t.Errorf("FreeAt(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestProfileReleaseAggregation(t *testing.T) {
	p := NewProfile(0, 0, []Release{{At: 50, Nodes: 1}, {At: 50, Nodes: 2}})
	if got := p.FreeAt(50); got != 3 {
		t.Fatalf("FreeAt(50) = %d, want 3 (same-time releases must aggregate)", got)
	}
}

func TestProfilePastReleaseFoldedIn(t *testing.T) {
	p := NewProfile(100, 1, []Release{{At: 100, Nodes: 2}, {At: 50, Nodes: 1}})
	if got := p.FreeAt(100); got != 4 {
		t.Fatalf("FreeAt(now) = %d, want 4 (releases at/before now fold into base)", got)
	}
}

func TestProfileFindStart(t *testing.T) {
	p := NewProfile(0, 2, []Release{{At: 100, Nodes: 2}, {At: 300, Nodes: 4}})
	// 2 nodes available immediately.
	if at, ok := p.FindStart(2, 50); !ok || at != 0 {
		t.Fatalf("FindStart(2) = %v,%v, want 0,true", at, ok)
	}
	// 4 nodes only after the first release.
	if at, ok := p.FindStart(4, 50); !ok || at != 100 {
		t.Fatalf("FindStart(4) = %v,%v, want 100,true", at, ok)
	}
	// 8 nodes after the second.
	if at, ok := p.FindStart(8, des.Forever); !ok || at != 300 {
		t.Fatalf("FindStart(8) = %v,%v, want 300,true", at, ok)
	}
	// More than the machine ever frees.
	if _, ok := p.FindStart(9, 10); ok {
		t.Fatal("FindStart(9) succeeded beyond final capacity")
	}
	// Zero nodes start immediately.
	if at, ok := p.FindStart(0, 10); !ok || at != 0 {
		t.Fatalf("FindStart(0) = %v,%v", at, ok)
	}
}

func TestProfileFindStartRespectsDips(t *testing.T) {
	// Capacity: 4 now, dips to 1 at t=100 (a reservation), back to 5 at 200.
	p := NewProfile(0, 4, []Release{{At: 200, Nodes: 1}})
	p.Reserve(100, 100, 3)
	// A 2-node job of length 150 cannot start now (dip at 100 breaks it)…
	if at, ok := p.FindStart(2, 150); !ok || at != 200 {
		t.Fatalf("FindStart(2, 150) = %v,%v, want 200,true", at, ok)
	}
	// …but a 50-second job fits before the dip.
	if at, ok := p.FindStart(2, 50); !ok || at != 0 {
		t.Fatalf("FindStart(2, 50) = %v,%v, want 0,true", at, ok)
	}
}

func TestProfileReserve(t *testing.T) {
	p := NewProfile(0, 4, nil)
	p.Reserve(10, 20, 3)
	if got := p.FreeAt(5); got != 4 {
		t.Fatalf("FreeAt(5) = %d", got)
	}
	if got := p.FreeAt(10); got != 1 {
		t.Fatalf("FreeAt(10) = %d", got)
	}
	if got := p.FreeAt(29); got != 1 {
		t.Fatalf("FreeAt(29) = %d", got)
	}
	if got := p.FreeAt(30); got != 4 {
		t.Fatalf("FreeAt(30) = %d", got)
	}
	// Reserving zero nodes is a no-op.
	before := p.Len()
	p.Reserve(15, 5, 0)
	if p.Len() != before {
		t.Fatal("Reserve(0 nodes) mutated the profile")
	}
}

func TestProfileReserveForever(t *testing.T) {
	p := NewProfile(0, 4, nil)
	p.Reserve(10, des.Forever, 2)
	if got := p.FreeAt(1e12); got != 2 {
		t.Fatalf("open-ended reservation not applied: FreeAt(1e12) = %d", got)
	}
}

func TestProfileOverdrawPanics(t *testing.T) {
	p := NewProfile(0, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("overdraw did not panic")
		}
	}()
	p.Reserve(0, 10, 3)
}

func TestProfileFreeAtBeforeStartPanics(t *testing.T) {
	p := NewProfile(100, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("FreeAt before start did not panic")
		}
	}()
	p.FreeAt(50)
}

func TestProfileNegativeReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative release did not panic")
		}
	}()
	NewProfile(0, 1, []Release{{At: 10, Nodes: -1}})
}

// Property: after any sequence of valid reservations found via FindStart,
// capacity never goes negative and FindStart results are consistent (the
// returned start admits the reservation).
func TestProperty_ProfileReservationsConsistent(t *testing.T) {
	f := func(jobs []struct {
		N   uint8
		Dur uint16
	}) bool {
		p := NewProfile(0, 8, []Release{{At: 500, Nodes: 4}, {At: 1000, Nodes: 4}})
		if len(jobs) > 12 {
			jobs = jobs[:12]
		}
		for _, jb := range jobs {
			n := int(jb.N)%8 + 1
			d := des.Duration(jb.Dur%2000) + 1
			at, ok := p.FindStart(n, d)
			if !ok {
				return false // 8 ≤ capacity, must always fit eventually
			}
			p.Reserve(at, d, n) // must not panic
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNewProfileMatchesMapAggregation checks the sort-based NewProfile
// against the map-based aggregation it replaced, on release lists with
// repeated times, releases at or before now, and zero-node entries.
func TestNewProfileMatchesMapAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 2000; k++ {
		now := des.Time(rng.Intn(50))
		releases := make([]Release, rng.Intn(30))
		for i := range releases {
			// Few distinct times, so repeats are common; some at or before now.
			releases[i] = Release{At: des.Time(rng.Intn(80)), Nodes: rng.Intn(4)}
		}
		input := slices.Clone(releases)
		freeNow := rng.Intn(5)
		got := NewProfile(now, freeNow, releases)
		want := refNewProfile(now, freeNow, releases)
		if !reflect.DeepEqual(got.times, want.times) || !reflect.DeepEqual(got.free, want.free) {
			t.Fatalf("NewProfile(%v, %d, %v) = %v/%v, map version %v/%v",
				now, freeNow, releases, got.times, got.free, want.times, want.free)
		}
		if !reflect.DeepEqual(releases, input) {
			t.Fatalf("NewProfile reordered its input")
		}
	}
}

// TestBuildNodeProfileMatchesMapBuilders checks the one slice-based builder
// against both map-based builders it replaced: the exclusive policies'
// (no overrides) and the sharing policies' (with release postponements).
func TestBuildNodeProfileMatchesMapBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for s := 0; s < 300; s++ {
		ctx := randomShareState(rng)
		ctx.Share = randomShareConfig(rng)
		claimed := newMarks(ctx)
		for ni := range claimed {
			claimed[ni] = rng.Intn(4) == 0
		}
		equal := func(a, b *Profile) bool {
			return reflect.DeepEqual(a.times, b.times) && reflect.DeepEqual(a.free, b.free)
		}
		if got, want := buildNodeProfile(ctx, claimed, nil), refBuildNodeProfile(ctx, claimed); !equal(got, want) {
			t.Fatalf("state %d: no overrides: %v/%v, map builder %v/%v", s, got.times, got.free, want.times, want.free)
		}
		if got, want := buildNodeProfile(ctx, claimed, nil), refProfileWith(ctx, claimed, nil); !equal(got, want) {
			t.Fatalf("state %d: nil overrides: %v/%v, map builder %v/%v", s, got.times, got.free, want.times, want.free)
		}
		override := map[cluster.JobID]des.Time{}
		for _, r := range ctx.Running {
			if rng.Intn(3) == 0 {
				override[r.Job.ID] = ctx.Now + des.Time(rng.Intn(8000))
			}
		}
		if got, want := buildNodeProfile(ctx, claimed, override), refProfileWith(ctx, claimed, override); !equal(got, want) {
			t.Fatalf("state %d: overrides: %v/%v, map builder %v/%v", s, got.times, got.free, want.times, want.free)
		}
	}
}
