package radio

import (
	"math"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
)

// This file implements the spatial index behind Neighbors: a uniform
// grid over the simulation plane whose cell side is at least the PHY
// range, so a range query only inspects the 3x3 block of cells around
// the querying device instead of every device in the world.
//
// The query-epoch snapshot rule: a worldView freezes every device's
// state and position for one (technology, modeled elapsed) pair. All
// positions are evaluated exactly once per epoch — not once per pair as
// the brute-force oracle does — and the view is cached, so the many
// Neighbors queries of one discovery round (every daemon scanning at
// the same modeled instant) share a single O(n) snapshot and each pay
// only the O(occupancy) cell scan. Any world mutation (Add, Remove,
// SetPowered, SetCoverage, SetModel) bumps a generation counter that
// invalidates the cache, so a view can never serve stale state: a
// cached view is reused only when the generation matches and either
// the modeled time matches too or every device of that generation is
// stationary (mobility.Static) — then positions cannot depend on the
// modeled time, and one view is valid at every elapsed of the
// generation. This makes the grid path answer-for-answer identical to
// the brute-force oracle (the differential property suite asserts
// byte-identical results over randomized worlds).
//
// A view is slot-indexed (slot.go): per-device state sits in slices
// indexed by Slot, and the grid is a flat row-major array of cells over
// the bounding box of the eligible devices, stored compressed — each
// cell's members are one contiguous run of a single slice.

// viewDevice is one device's frozen state inside a worldView.
type viewDevice struct {
	pos      geo.Point
	present  bool
	powered  bool
	coverage bool
	hasRadio bool
}

// worldView is an immutable snapshot of the world for one technology at
// one query epoch. Once built it is read without locks.
type worldView struct {
	elapsed    time.Duration
	gen        uint64
	stationary bool // every present device is static: valid at any elapsed
	phy        PHY
	devs       []viewDevice   // by slot
	ids        []ids.DeviceID // by slot
	// grid holds only devices eligible to carry traffic (powered, radio
	// present); unused for unlimited-range technologies.
	grid flatGrid
}

// flatGrid is a uniform grid in compressed-row form: cell c (row-major,
// c = y*nx + x) holds members[start[c]:start[c+1]], with the members'
// positions alongside in pos. Cell coordinates are floor(p/cell) less
// the grid origin (x0, y0). single collapses the grid to one cell for
// worlds whose coordinates do not fit a bounded grid; the distance
// predicate still decides every answer, so it stays exact, only slower.
type flatGrid struct {
	cell    float64
	x0, y0  float64
	nx, ny  int
	single  bool
	start   []int32
	members []Slot
	pos     []geo.Point
}

// gridCellBudget caps the cells of a flat grid at a constant factor of
// the devices it indexes, so a sparse world cannot allocate an
// arbitrarily large empty grid; past the budget the cell side grows.
func gridCellBudget(devices int) float64 { return float64(8*devices + 4096) }

// viewCacheSize bounds how many query epochs stay cached per
// technology. One slot is not enough: concurrent discovery rounds
// straddle an epoch boundary (some devices already in the next epoch
// while stragglers finish the previous one), and with a single slot
// their interleaved queries evict each other's snapshot on every call
// — each rebuilding the O(n) view the cache exists to amortize. A few
// slots cover every epoch a staggered round can have in flight.
const viewCacheSize = 4

// view returns the snapshot for (tech, elapsed), reusing a cached one
// when the world generation matches (see the snapshot rule above).
// Misses are single-flighted through buildMu: at a new epoch every
// device queries at once, and without the gate each concurrent miss
// would redundantly build the same O(n) snapshot. tech must index the
// per-technology arrays.
func (e *Environment) view(tech Technology, elapsed time.Duration) *worldView {
	gen := e.gen.Load()
	if v := e.cachedView(tech, elapsed, gen); v != nil {
		return v
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if v := e.cachedView(tech, elapsed, gen); v != nil {
		return v // built while we waited for the gate
	}
	v := e.buildView(tech, elapsed)
	kept := append(make([]*worldView, 0, viewCacheSize), v)
	if old := e.views[tech].Load(); old != nil {
		for _, o := range *old {
			if len(kept) == viewCacheSize {
				break
			}
			if o.gen == v.gen { // stale generations can never hit again
				kept = append(kept, o)
			}
		}
	}
	e.views[tech].Store(&kept)
	return v
}

// cachedView scans the technology's cached epochs for a view valid at
// (elapsed, gen).
func (e *Environment) cachedView(tech Technology, elapsed time.Duration, gen uint64) *worldView {
	list := e.views[tech].Load()
	if list == nil {
		return nil
	}
	for _, v := range *list {
		if v.gen == gen && (v.stationary || v.elapsed == elapsed) {
			return v
		}
	}
	return nil
}

// buildView takes the O(n) snapshot: slot states are read under the
// read lock (so the generation, the stationary flag and every state
// belong to one world), then positions are evaluated outside it
// (mobility models do their own locking and memoization).
func (e *Environment) buildView(tech Technology, elapsed time.Duration) *worldView {
	e.viewBuilds.Add(1)
	e.mu.RLock()
	gen := e.gen.Load()
	stationary := e.moving == 0
	n := int(e.nslots.Load())
	states := make([]*slotState, n)
	v := &worldView{elapsed: elapsed, gen: gen, stationary: stationary, ids: make([]ids.DeviceID, n)}
	for s := range states {
		c := e.cell(Slot(s))
		states[s], v.ids[s] = c.state.Load(), c.id
	}
	e.mu.RUnlock()

	v.phy, _ = e.phyOf(tech)
	bit := techBit(tech)
	v.devs = make([]viewDevice, n)
	eligible := 0
	for s, st := range states {
		if st == nil {
			continue
		}
		d := viewDevice{pos: st.positionAt(elapsed), present: true, powered: st.powered, coverage: st.coverage, hasRadio: st.radios&bit != 0}
		v.devs[s] = d
		if d.powered && d.hasRadio {
			eligible++
		}
	}
	if !v.phy.Unlimited() {
		v.grid.build(v.devs, eligible, v.phy.Range)
	}
	return v
}

// finite reports whether both coordinates are finite. A device with a
// non-finite coordinate is out of range of every device (the distance
// is NaN or +Inf), so the grid leaves it out.
func finite(p geo.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// build indexes the eligible devices (powered, radio present, finite
// position) in slot order. The cell side starts at the range, so every
// in-range pair lies in adjacent cells, and grows by whole factors
// until the bounding box fits the cell budget.
func (g *flatGrid) build(devs []viewDevice, eligible int, rng float64) {
	g.cell = rng
	budget := gridCellBudget(eligible)
	fits := false
	for tries := 0; tries < 8 && !fits; tries++ {
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, d := range devs {
			if !d.powered || !d.hasRadio || !finite(d.pos) {
				continue
			}
			fx, fy := math.Floor(d.pos.X/g.cell), math.Floor(d.pos.Y/g.cell)
			minX, maxX = math.Min(minX, fx), math.Max(maxX, fx)
			minY, maxY = math.Min(minY, fy), math.Max(maxY, fy)
		}
		if minX > maxX {
			minX, maxX, minY, maxY = 0, 0, 0, 0 // nothing eligible
		}
		w, h := maxX-minX+1, maxY-minY+1
		if !(w*h <= budget) { // also false for a NaN or +Inf span
			if math.IsInf(w*h, 1) || math.IsNaN(w*h) {
				break
			}
			g.cell *= math.Ceil(math.Sqrt(w * h / budget))
			continue
		}
		g.x0, g.y0, g.nx, g.ny = minX, minY, int(w), int(h)
		fits = true
	}
	if !fits {
		g.single, g.x0, g.y0, g.nx, g.ny = true, 0, 0, 1, 1
	}

	g.start = make([]int32, g.nx*g.ny+1)
	cellOf := make([]int32, len(devs))
	for s, d := range devs {
		cellOf[s] = -1
		if !d.powered || !d.hasRadio || !finite(d.pos) {
			continue
		}
		x, y, _ := g.coords(d.pos) // on the grid: the box was fitted to these
		c := y*g.nx + x
		cellOf[s] = int32(c)
		g.start[c+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.members = make([]Slot, g.start[len(g.start)-1])
	g.pos = make([]geo.Point, len(g.members))
	fill := make([]int32, g.nx*g.ny)
	copy(fill, g.start)
	for s, c := range cellOf {
		if c < 0 {
			continue
		}
		i := fill[c]
		fill[c]++
		g.members[i], g.pos[i] = Slot(s), devs[s].pos
	}
}

// coords returns the grid column and row of a position and whether it
// lies on the grid at all.
func (g *flatGrid) coords(p geo.Point) (x, y int, ok bool) {
	if g.single {
		return 0, 0, true
	}
	fx := math.Floor(p.X/g.cell) - g.x0
	fy := math.Floor(p.Y/g.cell) - g.y0
	if !(fx >= 0 && fx < float64(g.nx) && fy >= 0 && fy < float64(g.ny)) {
		return 0, 0, false
	}
	return int(fx), int(fy), true
}

// neighborsOf answers a Neighbors query for a slot against a frozen
// view. For ranged technologies only the 3x3 cell block around the
// querying device is scanned — a cell side of at least the range
// guarantees every device within range lies in that block. The
// distance predicate is the same `<= Range` the brute-force oracle
// applies, so the two paths agree exactly, boundary cases included.
// The result is sorted by ID; nothing but the result is allocated.
func (v *worldView) neighborsOf(self Slot) []ids.DeviceID {
	if self < 0 || int(self) >= len(v.devs) {
		return nil
	}
	me := v.devs[self]
	if !me.present || !me.powered || !me.hasRadio {
		return nil
	}
	var buf [64]Slot
	found := buf[:0]
	if v.phy.Unlimited() {
		// Cellular: geometric position is irrelevant; coverage matters.
		if !me.coverage {
			return nil
		}
		for s, d := range v.devs {
			if Slot(s) != self && d.present && d.powered && d.hasRadio && d.coverage {
				found = append(found, Slot(s))
			}
		}
	} else {
		g := &v.grid
		cx, cy, ok := g.coords(me.pos)
		if !ok {
			return nil
		}
		x0, x1 := max(cx-1, 0), min(cx+1, g.nx-1)
		for y := max(cy-1, 0); y <= min(cy+1, g.ny-1); y++ {
			row := y * g.nx
			for i := g.start[row+x0]; i < g.start[row+x1+1]; i++ {
				if other := g.members[i]; other != self && me.pos.DistanceTo(g.pos[i]) <= v.phy.Range {
					found = append(found, other)
				}
			}
		}
	}
	if len(found) == 0 {
		return nil
	}
	out := make([]ids.DeviceID, len(found))
	for i, s := range found {
		out[i] = v.ids[s]
	}
	slices.Sort(out)
	return out
}
