package radio

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/vtime"
)

// Sentinel errors returned by the environment.
var (
	ErrUnknownDevice  = errors.New("radio: unknown device")
	ErrDuplicateID    = errors.New("radio: duplicate device id")
	ErrInvalidID      = errors.New("radio: invalid device id")
	ErrNoSuchRadio    = errors.New("radio: device has no radio for technology")
	ErrDevicePowered  = errors.New("radio: device is powered off")
	ErrNoGPRSCoverage = errors.New("radio: device has no cellular coverage")
)

// Environment is the simulated world: devices, their radios and their
// movement. All methods are safe for concurrent use. Time flows on the
// supplied clock; modeled elapsed time (which drives mobility) is the
// wall time since creation divided by the latency scale, so a scenario
// that models minutes of walking can run in fractions of a second.
//
// Devices live in a dense table (slot.go): each ID gets a permanent
// Slot at its first Add, and per-message callers that resolved a Slot
// once check reachability by index, without hashing the ID or taking
// the world lock.
type Environment struct {
	clock vtime.Clock
	scale vtime.Scale
	start time.Time

	// phys is fixed at construction (options only), so it is read
	// without a lock.
	phys   [numTechs]PHY
	hasPHY [numTechs]bool

	// mu serializes the world mutators and guards index and moving.
	// Slot state itself is read lock-free (slotCell.state); gen is
	// bumped under mu by every world mutation and read lock-free.
	mu     sync.RWMutex
	index  map[ids.DeviceID]Slot
	chunks atomic.Pointer[[]*slotChunk]
	nslots atomic.Int32
	moving int // present devices whose model is not mobility.Static
	gen    atomic.Uint64

	// views is the per-technology query-epoch snapshot cache (a few
	// recent epochs per technology, replaced wholesale under buildMu;
	// see grid.go for the snapshot rule), and buildMu single-flights
	// cache misses so one snapshot build serves every device querying
	// at a new epoch. viewBuilds counts builds.
	views      [numTechs]atomic.Pointer[[]*worldView]
	buildMu    sync.Mutex
	viewBuilds atomic.Uint64

	// inqFaults holds the installed inquiry-fault filter (boxed so the
	// interface can be swapped atomically; nil box or nil filter means
	// no faults). Read lock-free on every Neighbors query.
	inqFaults atomic.Pointer[inquiryFaultsBox]
}

// InquiryFaults filters discovery: a Neighbors query by querier only
// reports target when Visible returns true. Reachability (Reachable,
// link checks, monitors) is never filtered — inquiry faults model scans
// missing devices, not links breaking. Implemented by faults.Plan.
type InquiryFaults interface {
	Visible(querier, target ids.DeviceID, tech Technology, elapsed time.Duration) bool
}

type inquiryFaultsBox struct{ f InquiryFaults }

// SetInquiryFaults installs (or, with nil, removes) the discovery fault
// filter. The filter is applied identically to the grid-indexed and
// brute-force neighbor paths, outside the view cache, so the
// differential oracle property is preserved under faults.
func (e *Environment) SetInquiryFaults(f InquiryFaults) {
	if f == nil {
		e.inqFaults.Store(nil)
		return
	}
	e.inqFaults.Store(&inquiryFaultsBox{f: f})
}

// filterInquiry applies the installed inquiry faults to a freshly
// allocated neighbor list (filtered in place).
func (e *Environment) filterInquiry(id ids.DeviceID, tech Technology, elapsed time.Duration, found []ids.DeviceID) []ids.DeviceID {
	box := e.inqFaults.Load()
	if box == nil || box.f == nil || len(found) == 0 {
		return found
	}
	out := found[:0]
	for _, other := range found {
		if box.f.Visible(id, other, tech, elapsed) {
			out = append(out, other)
		}
	}
	return out
}

// Option configures an Environment.
type Option func(*Environment)

// WithClock substitutes the time source (default: real clock).
func WithClock(c vtime.Clock) Option {
	return func(e *Environment) { e.clock = c }
}

// WithScale sets the latency scale (default: identity).
func WithScale(s vtime.Scale) Option {
	return func(e *Environment) { e.scale = s }
}

// WithPHY overrides the physical model of one technology. A PHY whose
// Tech is outside the Technology range is ignored.
func WithPHY(p PHY) Option {
	return func(e *Environment) {
		if techIndexOK(p.Tech) {
			e.phys[p.Tech], e.hasPHY[p.Tech] = p, true
		}
	}
}

// NewEnvironment returns an empty world.
func NewEnvironment(opts ...Option) *Environment {
	e := &Environment{
		clock: vtime.Real(),
		scale: vtime.Identity(),
		index: make(map[ids.DeviceID]Slot),
	}
	e.chunks.Store(new([]*slotChunk))
	for _, t := range AllTechnologies() {
		e.phys[t], e.hasPHY[t] = DefaultPHY(t), true
	}
	for _, opt := range opts {
		opt(e)
	}
	e.start = e.clock.Now()
	return e
}

// Clock returns the environment's time source.
func (e *Environment) Clock() vtime.Clock { return e.clock }

// Scale returns the environment's latency scale.
func (e *Environment) Scale() vtime.Scale { return e.scale }

// PHY returns the physical model for a technology (the zero PHY for a
// technology the world has no model of).
func (e *Environment) PHY(t Technology) PHY {
	p, _ := e.phyOf(t)
	return p
}

// phyOf returns a technology's PHY and whether the world models it.
func (e *Environment) phyOf(t Technology) (PHY, bool) {
	if !techIndexOK(t) || !e.hasPHY[t] {
		return PHY{}, false
	}
	return e.phys[t], true
}

// Elapsed returns the modeled time since the environment was created.
func (e *Environment) Elapsed() time.Duration {
	return e.scale.ToModeled(e.clock.Now().Sub(e.start))
}

// Add places a device in the world with the given mobility model and
// radio technologies. Devices start powered on and inside cellular
// coverage. The first Add of an ID assigns its permanent Slot; adding
// it again after a Remove reuses that slot.
func (e *Environment) Add(id ids.DeviceID, model mobility.Model, techs ...Technology) error {
	if !id.Valid() {
		return fmt.Errorf("%w: %q", ErrInvalidID, id)
	}
	st := &slotState{powered: true, coverage: true}
	st.setModel(model)
	for _, t := range techs {
		if !t.Valid() {
			return fmt.Errorf("radio: invalid technology %v", t)
		}
		st.radios |= techBit(t)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s, known := e.index[id]
	if !known {
		s = e.newSlotLocked(id)
	}
	c := e.cell(s)
	if c.state.Load() != nil {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	c.state.Store(st)
	if !st.static {
		e.moving++
	}
	e.gen.Add(1)
	return nil
}

// Remove deletes a device from the world. Its slot is kept (marked
// absent), so a later Add of the same ID lands in the same slot.
func (e *Environment) Remove(id ids.DeviceID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.index[id]; ok {
		c := e.cell(s)
		if old := c.state.Swap(nil); old != nil && !old.static {
			e.moving--
		}
	}
	e.gen.Add(1)
}

// update applies one mutation to a present device: the slot's state
// is copied, edited and swapped in whole, so lock-free readers always
// see a consistent state.
func (e *Environment) update(id ids.DeviceID, edit func(*slotState)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.index[id]
	var old *slotState
	if ok {
		old = e.cell(s).state.Load()
	}
	if old == nil {
		return fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	st := *old
	edit(&st)
	if old.static != st.static {
		if st.static {
			e.moving--
		} else {
			e.moving++
		}
	}
	e.cell(s).state.Store(&st)
	e.gen.Add(1)
	return nil
}

// SetPowered turns a device's radios on or off; a powered-off device is
// invisible and unreachable, which is how tests model a user leaving.
func (e *Environment) SetPowered(id ids.DeviceID, on bool) error {
	return e.update(id, func(st *slotState) { st.powered = on })
}

// SetCoverage marks whether the device is inside cellular coverage,
// affecting GPRS reachability only.
func (e *Environment) SetCoverage(id ids.DeviceID, covered bool) error {
	return e.update(id, func(st *slotState) { st.coverage = covered })
}

// SetModel replaces a device's mobility model. The new model receives
// the same elapsed values as the old one (elapsed time since the
// environment was created), so construct it accordingly.
func (e *Environment) SetModel(id ids.DeviceID, model mobility.Model) error {
	return e.update(id, func(st *slotState) { st.setModel(model) })
}

// Devices returns all device IDs, sorted, powered or not.
func (e *Environment) Devices() []ids.DeviceID {
	n := Slot(e.nslots.Load())
	out := make([]ids.DeviceID, 0, n)
	for s := Slot(0); s < n; s++ {
		if c := e.cell(s); c.state.Load() != nil {
			out = append(out, c.id)
		}
	}
	slices.Sort(out)
	return out
}

// Has reports whether a device exists.
func (e *Environment) Has(id ids.DeviceID) bool {
	s, ok := e.SlotOf(id)
	return ok && e.state(s) != nil
}

// Position returns a device's current position.
func (e *Environment) Position(id ids.DeviceID) (geo.Point, error) {
	return e.PositionAt(id, e.Elapsed())
}

// PositionAt returns a device's position at the given modeled elapsed
// time.
func (e *Environment) PositionAt(id ids.DeviceID, elapsed time.Duration) (geo.Point, error) {
	s, ok := e.SlotOf(id)
	var st *slotState
	if ok {
		st = e.state(s)
	}
	if st == nil {
		return geo.Point{}, fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	return st.positionAt(elapsed), nil
}

// Reachable reports whether a message can pass from a to b over the
// given technology right now: both devices exist, are powered, carry
// the radio, and are within the PHY range (or covered, for cellular).
// A single pair check is O(1), so it stays on the direct per-pair path;
// mobility models are deterministic functions of elapsed time, so at
// any epoch Reachable(a, b) agrees exactly with b's membership in the
// grid-indexed Neighbors(a) (asserted by the differential suite).
func (e *Environment) Reachable(a, b ids.DeviceID, tech Technology) bool {
	return e.ReachableAt(a, b, tech, e.Elapsed())
}

// ReachableAt is Reachable at an explicit modeled elapsed time: the
// two IDs are resolved to slots and checked by ReachableSlotsAt.
func (e *Environment) ReachableAt(a, b ids.DeviceID, tech Technology, elapsed time.Duration) bool {
	sa, okA := e.SlotOf(a)
	sb, okB := e.SlotOf(b)
	return okA && okB && e.ReachableSlotsAt(sa, sb, tech, elapsed)
}

// ReachableSlotsAt is the reachability predicate on resolved slots —
// the per-message path of the transport, which resolves each endpoint
// once. It reads slot state without the world lock.
func (e *Environment) ReachableSlotsAt(a, b Slot, tech Technology, elapsed time.Duration) bool {
	if a == b {
		return false
	}
	sa, sb := e.state(a), e.state(b)
	if sa == nil || sb == nil {
		return false
	}
	phy, ok := e.phyOf(tech)
	if !ok {
		return false
	}
	bit := techBit(tech)
	if !sa.powered || !sb.powered || sa.radios&bit == 0 || sb.radios&bit == 0 {
		return false
	}
	if phy.Unlimited() {
		// Cellular: geometric position is irrelevant; coverage matters.
		return sa.coverage && sb.coverage
	}
	return sa.positionAt(elapsed).DistanceTo(sb.positionAt(elapsed)) <= phy.Range
}

// Neighbors returns the devices currently reachable from id over the
// given technology, sorted by device ID for determinism. The query runs
// against the grid-indexed epoch snapshot (grid.go): O(cell occupancy)
// per call, with the O(n) position snapshot amortized over every query
// in the same epoch. NeighborsBrute is the O(n) oracle it is verified
// against.
func (e *Environment) Neighbors(id ids.DeviceID, tech Technology) []ids.DeviceID {
	return e.NeighborsAt(id, tech, e.Elapsed())
}

// NeighborsAt answers a Neighbors query at an explicit modeled elapsed
// time, letting callers pin many queries to one epoch so they share a
// single world snapshot (one discovery round = one epoch).
func (e *Environment) NeighborsAt(id ids.DeviceID, tech Technology, elapsed time.Duration) []ids.DeviceID {
	s, ok := e.SlotOf(id)
	if !ok {
		return nil
	}
	if _, ok := e.phyOf(tech); !ok {
		return nil
	}
	return e.filterInquiry(id, tech, elapsed, e.view(tech, elapsed).neighborsOf(s))
}

// NeighborsBrute is the brute-force O(n) per-pair neighbor scan the
// grid index replaced. It is retained as the differential-testing
// oracle: the property suite and BenchmarkNeighbors assert the grid
// path returns byte-identical results at a fraction of the cost.
func (e *Environment) NeighborsBrute(id ids.DeviceID, tech Technology) []ids.DeviceID {
	return e.NeighborsBruteAt(id, tech, e.Elapsed())
}

// NeighborsBruteAt is NeighborsBrute at an explicit modeled elapsed
// time.
func (e *Environment) NeighborsBruteAt(id ids.DeviceID, tech Technology, elapsed time.Duration) []ids.DeviceID {
	self, ok := e.SlotOf(id)
	if !ok {
		return nil
	}
	st := e.state(self)
	if st == nil || !st.powered || st.radios&techBit(tech) == 0 {
		return nil
	}
	var out []ids.DeviceID
	n := Slot(e.nslots.Load())
	for s := Slot(0); s < n; s++ {
		if e.ReachableSlotsAt(self, s, tech, elapsed) {
			out = append(out, e.cell(s).id)
		}
	}
	slices.Sort(out)
	return e.filterInquiry(id, tech, elapsed, out)
}

// Signal returns the link quality between two devices in [0, 1]: 1 at
// zero distance, 0 at or beyond range. Unlimited-range technologies
// report 1 whenever reachable.
func (e *Environment) Signal(a, b ids.DeviceID, tech Technology) float64 {
	if !e.Reachable(a, b, tech) {
		return 0
	}
	phy := e.PHY(tech)
	if phy.Unlimited() {
		return 1
	}
	pa, errA := e.Position(a)
	pb, errB := e.Position(b)
	if errA != nil || errB != nil {
		return 0
	}
	d := pa.DistanceTo(pb)
	q := 1 - d/phy.Range
	if q < 0 {
		q = 0
	}
	return q
}

// Technologies returns the radio technologies a device carries, sorted
// in preference order.
func (e *Environment) Technologies(id ids.DeviceID) []Technology {
	s, ok := e.SlotOf(id)
	if !ok {
		return nil
	}
	st := e.state(s)
	if st == nil {
		return nil
	}
	var out []Technology
	for _, t := range AllTechnologies() {
		if st.radios&techBit(t) != 0 {
			out = append(out, t)
		}
	}
	return out
}
