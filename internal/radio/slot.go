package radio

import (
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
)

// This file is the dense device table behind Environment. Every device
// ID gets a Slot — a small integer index — at its first Add, and keeps
// it for the life of the environment: Remove only marks the slot
// absent, and a later Add of the same ID fills the same slot again.
// Slots are never recycled to another ID, so a Slot resolved once
// names the same device forever and callers on the per-message path
// (netsim conns, listeners, airtime ledgers) can hold it instead of the
// ID.
//
// A slot's state is one immutable slotState behind an atomic pointer.
// The rare mutators (Add, Remove, SetPowered, SetCoverage, SetModel)
// build a fresh state and swap it in under the world lock; readers load
// the pointer without any lock. The table is a list of fixed-size
// chunks, so a cell never moves once allocated and growing the table
// copies only the short chunk list.

// Slot is a device's permanent index in its Environment's device
// table. It is only meaningful for the environment that issued it.
type Slot int32

const (
	slotChunkBits = 10
	slotChunkSize = 1 << slotChunkBits
)

// slotCell is one table entry: the owning ID (fixed when the slot is
// issued) and the current state, nil while the device is absent.
type slotCell struct {
	id    ids.DeviceID
	state atomic.Pointer[slotState]
}

type slotChunk [slotChunkSize]slotCell

// slotState is one device's state. It is never mutated after it is
// published; mutators swap in a copy.
type slotState struct {
	model mobility.Model
	// pos is the model's fixed position when static is set, so
	// stationary devices skip the model call on every check.
	pos      geo.Point
	static   bool
	radios   uint8 // bit techBit(t) per technology carried
	powered  bool
	coverage bool
}

// setModel installs a mobility model (nil means Static at the origin)
// and precomputes the position of a stationary one.
func (st *slotState) setModel(model mobility.Model) {
	if model == nil {
		model = mobility.Static{}
	}
	st.model = model
	fixed, ok := model.(mobility.Static)
	st.static, st.pos = ok, fixed.At
}

// positionAt is the device position at a modeled elapsed time.
func (st *slotState) positionAt(elapsed time.Duration) geo.Point {
	if st.static {
		return st.pos
	}
	return st.model.Position(elapsed)
}

// numTechs sizes the per-technology arrays: every Technology value
// from TechNone through GPRS.
const numTechs = int(GPRS) + 1

// techIndexOK reports whether t indexes the per-technology arrays.
func techIndexOK(t Technology) bool { return t >= 0 && int(t) < numTechs }

// techBit is t's bit in slotState.radios (0 for values outside the
// technology range, which no device can carry).
func techBit(t Technology) uint8 {
	if !techIndexOK(t) {
		return 0
	}
	return 1 << uint(t)
}

// SlotOf resolves a device ID to its slot. It reports false only for
// an ID that was never added; a removed device keeps its slot, and
// checks on it fail until it is added again.
func (e *Environment) SlotOf(id ids.DeviceID) (Slot, bool) {
	e.mu.RLock()
	s, ok := e.index[id]
	e.mu.RUnlock()
	return s, ok
}

// newSlotLocked issues the next slot to id, growing the chunk list
// when the last chunk is full. The new chunk list and the cell's ID
// are published before the slot count, so a reader that sees the
// count sees the cell. Callers hold e.mu for writing.
func (e *Environment) newSlotLocked(id ids.DeviceID) Slot {
	s := Slot(e.nslots.Load())
	chunks := *e.chunks.Load()
	if int(s>>slotChunkBits) == len(chunks) {
		grown := make([]*slotChunk, len(chunks), len(chunks)+1)
		copy(grown, chunks)
		grown = append(grown, new(slotChunk))
		e.chunks.Store(&grown)
		chunks = grown
	}
	chunks[s>>slotChunkBits][s&(slotChunkSize-1)].id = id
	e.index[id] = s
	e.nslots.Store(int32(s) + 1)
	return s
}

// cell returns a slot's table entry, or nil for a slot this
// environment has not issued.
func (e *Environment) cell(s Slot) *slotCell {
	if s < 0 || int32(s) >= e.nslots.Load() {
		return nil
	}
	return &(*e.chunks.Load())[s>>slotChunkBits][s&(slotChunkSize-1)]
}

// state returns a slot's current state, nil when the device is absent
// or the slot was never issued.
func (e *Environment) state(s Slot) *slotState {
	c := e.cell(s)
	if c == nil {
		return nil
	}
	return c.state.Load()
}
