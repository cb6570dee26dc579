// Package faults is the seeded, deterministic fault-injection plane
// for the radio/transport substrate. A Plan describes a hostile link
// layer — per-message loss (modeled as retransmissions on the reliable
// link, with a reset when the budget runs out), payload corruption,
// extra latency and jitter, bandwidth throttling, flapping links,
// healing partitions, and inquiry misses on the radio side — plus the
// end-host faults in endpoints.go (stalled sessions, slow devices,
// crash–restart schedules) — and every
// decision it makes is a pure function of (seed, fault kind, link,
// sequence numbers). There is no shared random-number state: two runs
// with the same seed and the same application behaviour draw the same
// fates for the same messages regardless of goroutine interleaving,
// which is what makes seeded chaos scenarios replayable.
//
// A Plan is wired into the substrate at two points:
//
//   - netsim.Network.SetFaults(plan) injects the transport faults
//     (Conn pumps consult MessageFate/ScaleTransfer, linkUp consults
//     LinkDown);
//   - radio.Environment.SetInquiryFaults(plan) injects the discovery
//     faults (Neighbors queries are filtered through Visible).
//
// Configure a Plan fully before installing it; it must not be mutated
// afterwards. The query methods are safe for concurrent use.
package faults

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/radio"
)

// Default knobs, in modeled time.
const (
	defaultMaxRetransmits = 3
	defaultFlapWindow     = 2 * time.Second
	defaultRadioWindow    = 2 * time.Second

	// maxTraceEvents bounds the in-memory event trace; past it, events
	// are still counted but not recorded.
	maxTraceEvents = 16384
)

// LinkProfile describes the transport-level faults applied to every
// message on every connection while the plan is active.
type LinkProfile struct {
	// Loss is the per-transmission-attempt probability in [0, 1] that a
	// message must be retransmitted. Each retransmission charges the
	// full PHY transfer time again; after MaxRetransmits failed
	// attempts the link resets with ErrLinkLost, which is what drives
	// RobustConn failover.
	Loss float64
	// MaxRetransmits caps retransmission attempts per message
	// (default 3 when Loss > 0).
	MaxRetransmits int
	// Corrupt is the per-message probability in [0, 1] that the
	// delivered payload is mangled (bit flips, truncation, insertion).
	// The wire codec must reject such frames without panicking.
	Corrupt float64
	// ExtraLatency is a fixed additional modeled delay per message.
	ExtraLatency time.Duration
	// Jitter adds a uniformly drawn delay in [0, Jitter) per message.
	Jitter time.Duration
	// BandwidthFactor multiplies the PHY transfer time; 0 or 1 leaves
	// it unchanged, 2 halves the effective bandwidth.
	BandwidthFactor float64
	// FlapRate is the probability in [0, 1] that a link is down during
	// any given FlapWindow — mid-stream flaps that heal by themselves.
	FlapRate float64
	// FlapWindow is the modeled width of one flap interval
	// (default 2s).
	FlapWindow time.Duration
}

// inert reports whether the profile changes nothing on the message
// path, so the zero-rate fast paths can skip all hashing.
func (lp LinkProfile) inert() bool {
	return lp.Loss == 0 && lp.Corrupt == 0 && lp.ExtraLatency == 0 &&
		lp.Jitter == 0
}

// RadioProfile describes the discovery-level faults: inquiry scans
// missing devices that are really in range.
type RadioProfile struct {
	// Miss is the probability in [0, 1] that a given neighbor is
	// invisible to a given querier for one Window.
	Miss float64
	// Asymmetry is the probability in [0, 1] that visibility between a
	// pair is one-directional for one Window (A sees B, B misses A).
	Asymmetry float64
	// Window is the modeled width of one visibility interval
	// (default 2s).
	Window time.Duration
}

func (rp RadioProfile) inert() bool { return rp.Miss == 0 && rp.Asymmetry == 0 }

// PartitionWindow severs all links between two device groups for a
// modeled time interval, healing at End. Partitions are independent of
// the plan's active window.
type PartitionWindow struct {
	GroupA, GroupB []ids.DeviceID
	// The partition holds while Start <= elapsed < End.
	Start, End time.Duration
}

type partition struct {
	a, b       map[ids.DeviceID]bool
	start, end time.Duration
}

func (p partition) severs(x, y ids.DeviceID, elapsed time.Duration) bool {
	if elapsed < p.start || elapsed >= p.end {
		return false
	}
	return (p.a[x] && p.b[y]) || (p.a[y] && p.b[x])
}

// EventKind labels one traced fault decision.
type EventKind uint8

// Trace event kinds.
const (
	// EventRetransmit: a message needed one or more retransmissions.
	EventRetransmit EventKind = iota
	// EventReset: a message exhausted its retransmission budget and the
	// link was severed.
	EventReset
	// EventCorrupt: a delivered payload was mangled.
	EventCorrupt
	// EventStall: a reply was withheld by a stalled serving session.
	EventStall
)

func (k EventKind) String() string {
	switch k {
	case EventRetransmit:
		return "retransmit"
	case EventReset:
		return "reset"
	case EventCorrupt:
		return "corrupt"
	case EventStall:
		return "stall"
	default:
		return "unknown"
	}
}

// Event is one traced fault decision, keyed by the message it applied
// to. Because fates are pure functions of the key, replaying a seed
// with the same application behaviour reproduces the identical event
// set, independent of goroutine interleaving.
type Event struct {
	Kind     EventKind
	From, To ids.DeviceID
	ConnSeq  uint64
	MsgSeq   uint64
	// Count carries the retransmission count for EventRetransmit.
	Count int
}

// Counters are monotonic totals of the plan's activity.
type Counters struct {
	// MessagesLost counts lost transmission attempts (each one charged
	// as a retransmission).
	MessagesLost uint64
	// LinkResets counts messages that exhausted the retransmission
	// budget, severing their connection.
	LinkResets uint64
	// MessagesCorrupted counts payloads mangled in flight.
	MessagesCorrupted uint64
	// MessagesDelayed counts messages given extra latency or jitter.
	MessagesDelayed uint64
	// FlapsObserved counts LinkDown queries answered "down" by a flap
	// window (observation count, not distinct flaps).
	FlapsObserved uint64
	// InquiriesMissed counts Visible queries answered "invisible".
	InquiriesMissed uint64
	// MessagesStalled counts replies withheld by stalled serving
	// sessions.
	MessagesStalled uint64
	// SlowTransfers counts PHY charges inflated by a slow-device window.
	SlowTransfers uint64
	// CrashDenials counts link and inquiry queries answered "gone"
	// because a device was inside a crash window (observation count).
	CrashDenials uint64
}

// Plan is a fully deterministic fault schedule. Build one with New and
// the Set/Add configurators, install it, and never mutate it again.
type Plan struct {
	seed      uint64
	link      LinkProfile
	radio     RadioProfile
	endpoints EndpointProfile
	until     time.Duration // 0 = active forever
	parts     []partition
	stalls    []StallWindow
	crashes   []CrashWindow

	counters planCounters

	traceMu      sync.Mutex
	trace        []Event
	traceDropped uint64
}

// New returns an empty plan (no faults) for a seed.
func New(seed int64) *Plan {
	return &Plan{seed: uint64(seed)}
}

// SetLink installs the transport fault profile.
func (p *Plan) SetLink(lp LinkProfile) *Plan {
	if lp.MaxRetransmits <= 0 {
		lp.MaxRetransmits = defaultMaxRetransmits
	}
	if lp.FlapWindow <= 0 {
		lp.FlapWindow = defaultFlapWindow
	}
	p.link = lp
	return p
}

// SetRadio installs the discovery fault profile.
func (p *Plan) SetRadio(rp RadioProfile) *Plan {
	if rp.Window <= 0 {
		rp.Window = defaultRadioWindow
	}
	p.radio = rp
	return p
}

// SetActiveWindow deactivates the link and radio profiles once the
// modeled elapsed time reaches until — the "faults heal" switch. Zero
// means active forever. Partition windows carry their own intervals
// and are not affected.
func (p *Plan) SetActiveWindow(until time.Duration) *Plan {
	p.until = until
	return p
}

// AddPartition schedules a healing partition between two device groups.
func (p *Plan) AddPartition(w PartitionWindow) *Plan {
	part := partition{
		a:     make(map[ids.DeviceID]bool, len(w.GroupA)),
		b:     make(map[ids.DeviceID]bool, len(w.GroupB)),
		start: w.Start,
		end:   w.End,
	}
	for _, d := range w.GroupA {
		part.a[d] = true
	}
	for _, d := range w.GroupB {
		part.b[d] = true
	}
	p.parts = append(p.parts, part)
	return p
}

// Seed returns the plan's seed.
func (p *Plan) Seed() int64 { return int64(p.seed) }

func (p *Plan) active(elapsed time.Duration) bool {
	return p.until == 0 || elapsed < p.until
}

// --- Deterministic draws -------------------------------------------------

// Fault kinds feeding the hash, so independent decisions about the same
// message decorrelate.
const (
	kindLoss uint64 = iota + 1
	kindCorrupt
	kindJitter
	kindFlap
	kindMiss
	kindAsym
	kindStall
	kindSlow
)

// foldString folds a string into a running hash (FNV-1a step).
func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// drawHash computes the decision word for one (kind, link, indices)
// tuple.
func (p *Plan) drawHash(kind uint64, a, b ids.DeviceID, idx ...uint64) uint64 {
	h := uint64(14695981039346656037) ^ p.seed
	h = ids.Mix64(h ^ kind)
	h = foldString(h, string(a))
	h = ids.Mix64(h)
	h = foldString(h, string(b))
	h = ids.Mix64(h)
	for _, n := range idx {
		h = ids.Mix64(h ^ n)
	}
	return h
}

// unit maps a hash word to a uniform float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// --- Transport queries (netsim) ------------------------------------------

// Fate is what the plan does to one message on the wire.
type Fate struct {
	// Retransmits is the number of extra PHY transfer charges before
	// the message gets through.
	Retransmits int
	// Reset severs the connection with ErrLinkLost instead of
	// delivering (the retransmission budget ran out).
	Reset bool
	// Corrupt mangles the delivered payload.
	Corrupt bool
	// Delay is extra modeled latency applied before delivery.
	Delay time.Duration
}

// MessageFate decides, purely from the seed and the message's identity,
// what happens to one message: how many retransmissions it needs,
// whether the link resets, whether the payload is corrupted, and how
// much extra latency it sees. connSeq identifies the connection on the
// directed (from, to) pair; msgSeq is the message's 1-based index on
// that connection end.
func (p *Plan) MessageFate(from, to ids.DeviceID, connSeq, msgSeq uint64, elapsed time.Duration) Fate {
	if p == nil || p.link.inert() || !p.active(elapsed) {
		return Fate{}
	}
	var fate Fate
	lp := p.link
	if lp.Loss > 0 {
		attempt := 0
		for ; attempt <= lp.MaxRetransmits; attempt++ {
			if unit(p.drawHash(kindLoss, from, to, connSeq, msgSeq, uint64(attempt))) >= lp.Loss {
				break
			}
		}
		if attempt > lp.MaxRetransmits {
			fate.Retransmits = lp.MaxRetransmits
			fate.Reset = true
		} else {
			fate.Retransmits = attempt
		}
	}
	if !fate.Reset {
		if lp.Corrupt > 0 && unit(p.drawHash(kindCorrupt, from, to, connSeq, msgSeq)) < lp.Corrupt {
			fate.Corrupt = true
		}
		if lp.ExtraLatency > 0 || lp.Jitter > 0 {
			fate.Delay = lp.ExtraLatency
			if lp.Jitter > 0 {
				fate.Delay += time.Duration(unit(p.drawHash(kindJitter, from, to, connSeq, msgSeq)) * float64(lp.Jitter))
			}
		}
	}
	p.recordFate(from, to, connSeq, msgSeq, fate)
	return fate
}

// recordFate updates counters and the bounded trace.
func (p *Plan) recordFate(from, to ids.DeviceID, connSeq, msgSeq uint64, fate Fate) {
	if fate.Retransmits > 0 {
		p.counters.messagesLost.Add(uint64(fate.Retransmits))
	}
	if fate.Reset {
		p.counters.linkResets.Add(1)
	}
	if fate.Corrupt {
		p.counters.messagesCorrupted.Add(1)
	}
	if fate.Delay > 0 {
		p.counters.messagesDelayed.Add(1)
	}
	if fate.Retransmits == 0 && !fate.Reset && !fate.Corrupt {
		return
	}
	p.traceMu.Lock()
	defer p.traceMu.Unlock()
	add := func(ev Event) {
		if len(p.trace) >= maxTraceEvents {
			p.traceDropped++
			return
		}
		p.trace = append(p.trace, ev)
	}
	if fate.Retransmits > 0 {
		add(Event{Kind: EventRetransmit, From: from, To: to, ConnSeq: connSeq, MsgSeq: msgSeq, Count: fate.Retransmits})
	}
	if fate.Reset {
		add(Event{Kind: EventReset, From: from, To: to, ConnSeq: connSeq, MsgSeq: msgSeq})
	}
	if fate.Corrupt {
		add(Event{Kind: EventCorrupt, From: from, To: to, ConnSeq: connSeq, MsgSeq: msgSeq})
	}
}

// ScaleTransfer applies the bandwidth throttle to one PHY transfer
// charge.
func (p *Plan) ScaleTransfer(d time.Duration, elapsed time.Duration) time.Duration {
	if p == nil {
		return d
	}
	f := p.link.BandwidthFactor
	if f <= 0 || f == 1 || !p.active(elapsed) {
		return d
	}
	return time.Duration(float64(d) * f)
}

// SeversLinks reports whether the plan can ever sever a link — any
// partition window scheduled or a positive flap rate. When false,
// LinkDown is constantly false, so hot paths (broadcast fan-out, link
// sweeps) may skip the per-pair check entirely; this is what keeps a
// zero-rate plan's overhead off the fault-free fast path.
func (p *Plan) SeversLinks() bool {
	return p != nil && (len(p.parts) > 0 || len(p.crashes) > 0 || p.link.FlapRate > 0)
}

// LinkDown reports whether the plan severs the (a, b) link right now:
// either a scheduled partition window covers it, or the link is in a
// down flap window. Pure function of (seed, pair, window index), so
// every observer — dials, pumps, the shared sweeper — agrees.
func (p *Plan) LinkDown(a, b ids.DeviceID, elapsed time.Duration) bool {
	if p == nil {
		return false
	}
	if p.Crashed(a, elapsed) || p.Crashed(b, elapsed) {
		p.counters.crashDenials.Add(1)
		return true
	}
	for _, part := range p.parts {
		if part.severs(a, b, elapsed) {
			p.counters.flapsObserved.Add(1)
			return true
		}
	}
	if p.link.FlapRate <= 0 || !p.active(elapsed) {
		return false
	}
	if a > b {
		a, b = b, a
	}
	window := uint64(elapsed / p.link.FlapWindow)
	if unit(p.drawHash(kindFlap, a, b, window)) < p.link.FlapRate {
		p.counters.flapsObserved.Add(1)
		return true
	}
	return false
}

// --- Discovery queries (radio) -------------------------------------------

// Visible reports whether an inquiry by querier sees target at the
// given modeled elapsed time. It implements radio.InquiryFaults.
// Misses are drawn per (querier, target, technology, window);
// asymmetric visibility blocks one direction of a pair per window.
func (p *Plan) Visible(querier, target ids.DeviceID, tech radio.Technology, elapsed time.Duration) bool {
	if p == nil {
		return true
	}
	if p.Crashed(querier, elapsed) || p.Crashed(target, elapsed) {
		p.counters.crashDenials.Add(1)
		return false
	}
	if p.radio.inert() || !p.active(elapsed) {
		return true
	}
	rp := p.radio
	window := uint64(elapsed / rp.Window)
	if rp.Miss > 0 && unit(p.drawHash(kindMiss, querier, target, uint64(tech), window)) < rp.Miss {
		p.counters.inquiriesMissed.Add(1)
		return false
	}
	if rp.Asymmetry > 0 {
		a, b := querier, target
		if a > b {
			a, b = b, a
		}
		h := p.drawHash(kindAsym, a, b, uint64(tech), window)
		if unit(h) < rp.Asymmetry {
			// The pair is asymmetric this window; one hash bit picks the
			// blind direction.
			blindIsLower := h&(1<<60) != 0
			if blindIsLower == (querier == a) {
				p.counters.inquiriesMissed.Add(1)
				return false
			}
		}
	}
	return true
}

// --- Corruption ----------------------------------------------------------

// Corrupt returns a deterministically mangled copy of a payload, keyed
// by the message identity.
func (p *Plan) Corrupt(payload []byte, from, to ids.DeviceID, connSeq, msgSeq uint64) []byte {
	return Mangle(p.drawHash(kindCorrupt, from, to, connSeq, msgSeq, 0xc0ffee), payload)
}

// Mangle deterministically corrupts a copy of data using only the given
// hash word: bit flips, truncation, byte insertion, or a zeroed span,
// chosen and placed by successive mixes of the seed. It never returns
// data unchanged unless data is empty, and it never panics — it is also
// the generator behind the wire codec's corruption fuzz corpus.
func Mangle(seed uint64, data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	h := ids.Mix64(seed)
	switch h % 4 {
	case 0: // flip 1–3 bits
		n := int(ids.Mix64(h+1)%3) + 1
		for i := 0; i < n; i++ {
			w := ids.Mix64(h + 2 + uint64(i))
			out[w%uint64(len(out))] ^= 1 << (w >> 32 % 8)
		}
		if bytes.Equal(out, data) { // two flips cancelled each other
			out[0] ^= 1
		}
	case 1: // truncate (mod < len, so the copy always shrinks)
		out = out[:ids.Mix64(h+1)%uint64(len(out))]
	case 2: // insert a byte
		w := ids.Mix64(h + 1)
		pos := int(w % uint64(len(out)+1))
		out = append(out[:pos], append([]byte{byte(w >> 8)}, out[pos:]...)...)
	default: // zero a span
		w := ids.Mix64(h + 1)
		start := int(w % uint64(len(out)))
		span := int(w>>16%8) + 1
		changed := false
		for i := start; i < len(out) && i < start+span; i++ {
			if out[i] != 0 {
				changed = true
			}
			out[i] = 0
		}
		if !changed { // span was already zero; guarantee a difference
			out[start] ^= 0xff
		}
	}
	return out
}

// --- Reporting -----------------------------------------------------------

type planCounters struct {
	messagesLost      atomic.Uint64
	linkResets        atomic.Uint64
	messagesCorrupted atomic.Uint64
	messagesDelayed   atomic.Uint64
	flapsObserved     atomic.Uint64
	inquiriesMissed   atomic.Uint64
	messagesStalled   atomic.Uint64
	slowTransfers     atomic.Uint64
	crashDenials      atomic.Uint64
}

// Counters returns a snapshot of the plan's activity totals.
func (p *Plan) Counters() Counters {
	return Counters{
		MessagesLost:      p.counters.messagesLost.Load(),
		LinkResets:        p.counters.linkResets.Load(),
		MessagesCorrupted: p.counters.messagesCorrupted.Load(),
		MessagesDelayed:   p.counters.messagesDelayed.Load(),
		FlapsObserved:     p.counters.flapsObserved.Load(),
		InquiriesMissed:   p.counters.inquiriesMissed.Load(),
		MessagesStalled:   p.counters.messagesStalled.Load(),
		SlowTransfers:     p.counters.slowTransfers.Load(),
		CrashDenials:      p.counters.crashDenials.Load(),
	}
}

// Events returns the traced fault decisions in canonical order
// (link, connection, message, kind) — the replayable event trace two
// same-seed runs must agree on byte-for-byte.
func (p *Plan) Events() []Event {
	p.traceMu.Lock()
	out := append([]Event(nil), p.trace...)
	p.traceMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.ConnSeq != b.ConnSeq {
			return a.ConnSeq < b.ConnSeq
		}
		if a.MsgSeq != b.MsgSeq {
			return a.MsgSeq < b.MsgSeq
		}
		return a.Kind < b.Kind
	})
	return out
}

// EventsDropped reports how many events the bounded trace discarded.
func (p *Plan) EventsDropped() uint64 {
	p.traceMu.Lock()
	defer p.traceMu.Unlock()
	return p.traceDropped
}
