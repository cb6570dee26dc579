package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/vtime"
)

// This file holds the slot table to the ID API it sits under: seeded
// random mutation sequences must never let the slot path, the by-ID
// path and the brute-force neighbor scan disagree, a slot must stay
// bound to its ID across Remove and re-Add, and the view cache must
// reuse exactly the views the stationary-generation rule allows.

// TestSlotPathMatchesIDPathUnderMutation runs seeded random sequences
// of Add, Remove, re-Add, SetPowered, SetModel and SetCoverage, and at
// a random modeled elapsed after every step checks, for every ordered
// pair of IDs (including removed and never-added ones) and every
// technology, that ReachableSlotsAt on the resolved slots,
// ReachableAt by ID and membership in NeighborsBruteAt all agree.
func TestSlotPathMatchesIDPathUnderMutation(t *testing.T) {
	seeds, steps := 60, 40
	if testing.Short() {
		seeds = 15
	}
	techs := append([]Technology{TechNone}, AllTechnologies()...)
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnvironment(WithClock(vtime.NewManual(time.Unix(0, 0))))
		area := 10 + rng.Float64()*60
		pool := make([]ids.DeviceID, 6+rng.Intn(10))
		for i := range pool {
			pool[i] = ids.DeviceID(fmt.Sprintf("d%02d", i))
		}
		firstSlot := make(map[ids.DeviceID]Slot)
		for step := 0; step < steps; step++ {
			id := pool[rng.Intn(len(pool))]
			switch rng.Intn(7) {
			case 0, 1:
				_ = env.Add(id, randomModel(rng, area), techSets[rng.Intn(len(techSets))]...)
			case 2:
				env.Remove(id)
			case 3:
				_ = env.SetPowered(id, rng.Intn(3) > 0)
			case 4:
				_ = env.SetModel(id, randomModel(rng, area))
			case 5:
				_ = env.SetCoverage(id, rng.Intn(3) > 0)
			default:
				env.Remove(id)
				_ = env.Add(id, randomModel(rng, area), techSets[rng.Intn(len(techSets))]...)
			}
			for _, d := range pool {
				s, ok := env.SlotOf(d)
				if !ok {
					continue
				}
				if first, seen := firstSlot[d]; seen && first != s {
					t.Fatalf("seed %d step %d: %s moved from slot %d to %d", seed, step, d, first, s)
				}
				firstSlot[d] = s
			}

			elapsed := time.Duration(rng.Int63n(int64(10 * time.Minute)))
			for _, tech := range techs {
				for _, a := range pool {
					members := make(map[ids.DeviceID]bool)
					for _, m := range env.NeighborsBruteAt(a, tech, elapsed) {
						members[m] = true
					}
					sa, okA := env.SlotOf(a)
					for _, b := range pool {
						sb, okB := env.SlotOf(b)
						bySlot := okA && okB && env.ReachableSlotsAt(sa, sb, tech, elapsed)
						byID := env.ReachableAt(a, b, tech, elapsed)
						if bySlot != byID || byID != members[b] {
							t.Fatalf("seed %d step %d: %s->%s over %v at %v: slot path %v, ReachableAt %v, NeighborsBrute membership %v",
								seed, step, a, b, tech, elapsed, bySlot, byID, members[b])
						}
					}
					if got := env.NeighborsAt(a, tech, elapsed); !slices.Equal(got, env.NeighborsBruteAt(a, tech, elapsed)) {
						t.Fatalf("seed %d step %d: NeighborsAt(%s, %v) = %v, brute %v", seed, step, a, tech, got, env.NeighborsBruteAt(a, tech, elapsed))
					}
				}
			}
		}
	}
}

// TestSlotsArePermanent pins the slot contract: slots are issued in
// first-Add order, a removed device keeps its slot and checks on it
// fail, and re-adding the ID fills the same slot instead of a new one.
func TestSlotsArePermanent(t *testing.T) {
	env := NewEnvironment()
	for _, id := range []ids.DeviceID{"a", "b", "c"} {
		if err := env.Add(id, mobility.Static{}, Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	sb, _ := env.SlotOf("b")
	if sb != 1 {
		t.Fatalf("slot of b = %d, want 1 (first-Add order)", sb)
	}
	sa, _ := env.SlotOf("a")
	env.Remove("b")
	if s, ok := env.SlotOf("b"); !ok || s != sb {
		t.Fatalf("removed b resolves to (%d, %v), want (%d, true)", s, ok, sb)
	}
	if env.Has("b") || env.ReachableSlotsAt(sa, sb, Bluetooth, 0) {
		t.Fatal("removed device still present or reachable through its slot")
	}
	if err := env.Add("d", mobility.Static{}, Bluetooth); err != nil {
		t.Fatal(err)
	}
	if err := env.Add("b", mobility.Static{}, Bluetooth); err != nil {
		t.Fatal(err)
	}
	if s, _ := env.SlotOf("b"); s != sb {
		t.Fatalf("re-added b got slot %d, want its old slot %d", s, sb)
	}
	if sd, _ := env.SlotOf("d"); sd != 3 {
		t.Fatalf("slot of d = %d, want 3 (slots are never recycled)", sd)
	}
	if !env.ReachableSlotsAt(sa, sb, Bluetooth, 0) {
		t.Fatal("re-added device unreachable through its slot")
	}
	if _, ok := env.SlotOf("never"); ok {
		t.Fatal("an ID that was never added resolved to a slot")
	}
}

// TestSlotTableGrowsAcrossChunks adds devices past several table
// chunks and checks every one resolves and answers from its own slot.
func TestSlotTableGrowsAcrossChunks(t *testing.T) {
	env := NewEnvironment()
	n := 2*slotChunkSize + 7
	for i := 0; i < n; i++ {
		if err := env.Add(ids.DeviceIDf("g%05d", i), mobility.Static{At: geo.Pt(float64(i)*100, 0)}, Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 97 {
		id := ids.DeviceIDf("g%05d", i)
		s, ok := env.SlotOf(id)
		if !ok || int(s) != i {
			t.Fatalf("%s resolves to (%d, %v), want (%d, true)", id, s, ok, i)
		}
		if p, err := env.Position(id); err != nil || p.X != float64(i)*100 {
			t.Fatalf("Position(%s) = %v, %v", id, p, err)
		}
	}
	if got := len(env.Devices()); got != n {
		t.Fatalf("Devices() has %d entries, want %d", got, n)
	}
}

// newCacheWorld places three Bluetooth devices in range of each other
// under a manual clock.
func newCacheWorld(t *testing.T) *Environment {
	t.Helper()
	env := NewEnvironment(WithClock(vtime.NewManual(time.Unix(0, 0))))
	for i, id := range []ids.DeviceID{"a", "b", "c"} {
		if err := env.Add(id, mobility.Static{At: geo.Pt(float64(i), 0)}, Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	return env
}

// TestViewCacheStationaryGeneration pins the view cache rule: a world
// whose devices are all mobility.Static reuses one view at every
// elapsed of a generation, one moving device forces one view per
// elapsed, and SetModel starts a new generation either way.
func TestViewCacheStationaryGeneration(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		env := newCacheWorld(t)
		for i := 0; i < 10; i++ {
			if got := env.NeighborsAt("a", Bluetooth, time.Duration(i)*time.Minute); len(got) != 2 {
				t.Fatalf("NeighborsAt = %v, want [b c]", got)
			}
		}
		if got := env.viewBuilds.Load(); got != 1 {
			t.Fatalf("static world built %d views over 10 epochs, want 1", got)
		}
	})
	moving := map[string]mobility.Model{
		"linear":         mobility.Linear{Start: geo.Pt(0, 1), Velocity: geo.Vec(0.001, 0)},
		"randomwaypoint": mobility.NewRandomWaypoint(geo.NewRect(geo.Pt(0, 0), geo.Pt(3, 3)), 0.5, 1, time.Second, 7),
	}
	for name, model := range moving {
		t.Run(name, func(t *testing.T) {
			env := newCacheWorld(t)
			if err := env.Add("mover", model, Bluetooth); err != nil {
				t.Fatal(err)
			}
			const epochs = 6
			for i := 0; i < epochs; i++ {
				env.NeighborsAt("a", Bluetooth, time.Duration(i)*time.Second)
				env.NeighborsAt("b", Bluetooth, time.Duration(i)*time.Second) // same epoch: cached
			}
			if got := env.viewBuilds.Load(); got != epochs {
				t.Fatalf("world with a %s device built %d views over %d epochs, want one per epoch", name, got, epochs)
			}
			// Back to stationary: one view serves every epoch again.
			if err := env.SetModel("mover", mobility.Static{At: geo.Pt(0, 1)}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < epochs; i++ {
				env.NeighborsAt("a", Bluetooth, time.Duration(i)*time.Second)
			}
			if got := env.viewBuilds.Load(); got != epochs+1 {
				t.Fatalf("after SetModel to Static: %d builds, want %d", got, epochs+1)
			}
		})
	}
	t.Run("setmodel-invalidates", func(t *testing.T) {
		env := newCacheWorld(t)
		if got := env.NeighborsAt("a", Bluetooth, 0); len(got) != 2 {
			t.Fatalf("NeighborsAt = %v, want [b c]", got)
		}
		if err := env.SetModel("c", mobility.Static{At: geo.Pt(500, 0)}); err != nil {
			t.Fatal(err)
		}
		if got := env.NeighborsAt("a", Bluetooth, 0); !slices.Equal(got, []ids.DeviceID{"b"}) {
			t.Fatalf("NeighborsAt after SetModel = %v, want [b] (stale view served)", got)
		}
		if got := env.viewBuilds.Load(); got != 2 {
			t.Fatalf("SetModel left %d builds, want 2", got)
		}
	})
}

// TestNeighborsAtCachedAllocatesOnlyResult pins the query path: once
// the epoch's view is built, a NeighborsAt call allocates its result
// slice and nothing else.
func TestNeighborsAtCachedAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per sync event; the pin only means anything uninstrumented")
	}
	env := newCacheWorld(t)
	env.NeighborsAt("a", Bluetooth, 0) // build the view
	allocs := testing.AllocsPerRun(200, func() {
		if got := env.NeighborsAt("a", Bluetooth, time.Second); len(got) != 2 {
			t.Fatalf("NeighborsAt = %v, want [b c]", got)
		}
	})
	if allocs != 1 {
		t.Fatalf("cached NeighborsAt allocates %.1f objects per call, want 1 (the result)", allocs)
	}
	if got := env.viewBuilds.Load(); got != 1 {
		t.Fatalf("%d view builds, want 1", got)
	}
}

// TestGridCoarsensSparseWorlds checks that a world too spread out for
// a range-sized flat grid still answers exactly: the grid widens its
// cells, or collapses to one cell for non-finite or extreme
// coordinates, and the distance predicate keeps the answers equal to
// the brute-force scan.
func TestGridCoarsensSparseWorlds(t *testing.T) {
	env := NewEnvironment()
	add := func(id ids.DeviceID, at geo.Point) {
		t.Helper()
		if err := env.Add(id, mobility.Static{At: at}, Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	add("origin", geo.Pt(0, 0))
	add("near", geo.Pt(3, 4))
	add("far", geo.Pt(1e7, -1e7))
	add("far-near", geo.Pt(1e7+5, -1e7))
	check := func(stage string) {
		t.Helper()
		for _, id := range env.Devices() {
			if got, want := env.NeighborsAt(id, Bluetooth, 0), env.NeighborsBruteAt(id, Bluetooth, 0); !slices.Equal(got, want) {
				t.Fatalf("%s: NeighborsAt(%s) = %v, brute %v", stage, id, got, want)
			}
		}
	}
	check("sparse")
	v := env.view(Bluetooth, 0)
	if v.grid.single || v.grid.cell <= env.PHY(Bluetooth).Range {
		t.Fatalf("sparse world: grid single=%v cell=%v, want a widened flat grid", v.grid.single, v.grid.cell)
	}
	add("huge", geo.Pt(1e308, 1e308))
	add("huge-near", geo.Pt(1e308, 1e308))
	add("inf", geo.Pt(0, 0).Add(geo.Vec(1, 0).Scale(1e308).Scale(10)))
	check("extreme")
	if got := env.NeighborsAt("huge", Bluetooth, 0); !slices.Equal(got, []ids.DeviceID{"huge-near"}) {
		t.Fatalf("NeighborsAt(huge) = %v, want [huge-near]", got)
	}
}

// TestSlotStateConcurrentMutation runs the lock-free readers (slot
// checks, ID checks, grid queries) against concurrent mutators —
// power toggles, model swaps, removes and re-adds, new devices that
// grow the table across a chunk boundary — for the race detector, then
// checks the settled world still agrees with the brute-force scan.
func TestSlotStateConcurrentMutation(t *testing.T) {
	env := NewEnvironment(WithClock(vtime.NewManual(time.Unix(0, 0))))
	const base = slotChunkSize - 8
	for i := 0; i < base; i++ {
		if err := env.Add(ids.DeviceIDf("c%05d", i), mobility.Static{At: geo.Pt(float64(i%40)*3, float64(i/40)*3)}, Bluetooth, GPRS); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := ids.DeviceIDf("c%05d", rng.Intn(base))
				a, _ := env.SlotOf(id)
				b, _ := env.SlotOf(ids.DeviceIDf("c%05d", rng.Intn(base)))
				env.ReachableSlotsAt(a, b, Bluetooth, time.Duration(i))
				env.NeighborsAt(id, Bluetooth, time.Duration(i%3))
				env.Reachable(id, ids.DeviceIDf("c%05d", rng.Intn(base)), GPRS)
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		id := ids.DeviceIDf("c%05d", rng.Intn(base))
		switch i % 4 {
		case 0:
			_ = env.SetPowered(id, rng.Intn(2) == 0)
		case 1:
			_ = env.SetModel(id, mobility.Linear{Start: geo.Pt(rng.Float64()*120, 0), Velocity: geo.Vec(1, 0)})
		case 2:
			env.Remove(id)
			_ = env.Add(id, mobility.Static{At: geo.Pt(rng.Float64()*120, rng.Float64()*60)}, Bluetooth)
		default:
			_ = env.Add(ids.DeviceIDf("n%05d", i), mobility.Static{}, Bluetooth)
		}
	}
	close(done)
	wg.Wait()
	for _, id := range env.Devices() {
		if got, want := env.NeighborsAt(id, Bluetooth, time.Hour), env.NeighborsBruteAt(id, Bluetooth, time.Hour); !slices.Equal(got, want) {
			t.Fatalf("settled world: NeighborsAt(%s) = %v, brute %v", id, got, want)
		}
	}
}
