package netsim

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/radio"
)

// This file is the event-driven half of the engine seam: a Network
// bound to a des.Scheduler (NewDES) has no per-connection pump
// goroutines and no shared sweeper goroutine. Send draws the message's
// fate immediately and schedules a delivery event at the instant the
// modeled transfer completes; the link sweep is a self-rescheduling
// event; broadcast fan-out and dial setup ride the scheduler's Clock.
// The goroutine engine (conn.go pump, sweepLinks) is untouched and
// remains the differential oracle at small n — the simtest suite holds
// the two engines to identical delivered bytes, fault counters and
// group membership.
//
// Semantics preserved relative to the pump:
//   - per-direction messages deliver in msgSeq order (a receive-side
//     sequence gate, so even clamped event times cannot reorder);
//   - airtime is serialized per (device, technology): each message's
//     transmission starts when the radio frees, holding it for
//     (1+retransmits) x transfer — the event-time ledger equivalent of
//     the pump's txLock;
//   - admission backpressure: at most sendQueueLen messages in flight
//     per direction (the sendQ capacity), with the receive queue
//     buffering another sendQueueLen, so Send blocks at the same
//     outstanding-unread depth as the goroutine engine;
//   - fate order per message: retransmit accounting, reset, delay,
//     corruption, link recheck, delivery — byte-for-byte the pump's.
const (
	// desFlushRetry is the modeled pause before a delivery parked on a
	// full receive queue retries; the goroutine pump blocks on the
	// queue directly, an event must poll.
	desFlushRetry = time.Millisecond
)

// sweepHome is the scheduling home of the link-sweep event chain.
const sweepHome uint64 = 0x736e732d7377656570 >> 8 // "ns-sweep"

// homeOf maps a device to a stable 64-bit scheduling home, so all
// deliveries toward one device land on one shard in a deterministic
// spot that never depends on shard count.
func homeOf(dev ids.DeviceID) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(dev))
	return h.Sum64()
}

// desMsg is one in-flight message in the event engine.
type desMsg struct {
	seq     uint64
	payload []byte
	fate    faults.Fate
	plan    *faults.Plan
}

// desConnState is one conn end's event-engine state. The send side
// (msgSeq, dirFree, slots) covers messages this end transmits; the
// receive side (nextRecv, early, in) keeps arrivals from the peer in
// msgSeq order, holds the delivered ones until they are read and parks
// the rest while the receive queue is full.
type desConnState struct {
	// slots is the admission semaphore: sending pushes a token
	// (blocking at sendQueueLen in flight), delivery/drop pops it.
	slots chan struct{}

	mu     sync.Mutex
	msgSeq uint64
	// dirFree is the virtual instant (scheduler ns) when this
	// direction's latest delivery lands; later messages never deliver
	// at or before it, so the serial-pipeline shape of the pump holds.
	dirFree int64

	nextRecv uint64
	early    map[uint64]*desMsg // allocated at the first out-of-order arrival
	// in is the receive queue: its first ready messages are delivered
	// and unread (at most sendQueueLen, the goroutine engine's recvQ
	// capacity); the rest are in-order arrivals parked until the
	// reader makes room, still holding their sender's admission.
	in    msgRing
	ready int
	armed bool // a flush retry event is scheduled

	// waiter is the parked RecvEvent continuation (events.go), invoked
	// by the delivery or teardown event that produces its outcome; nil
	// when no event receive is outstanding.
	waiter recvFn

	// wake rouses goroutines parked in a blocking Recv (desRecv);
	// parked counts them. Deliveries signal it only while parked > 0,
	// so no token is left behind for a reader that never waits. Made
	// by the first reader to park: event-driven ends never need it.
	wake   chan struct{}
	parked int
}

// msgRing is a growable FIFO ring of messages; its capacity follows
// the deepest backlog the conn end has seen, not sendQueueLen.
type msgRing struct {
	buf  []*desMsg // length zero or a power of two
	head int
	n    int
}

func (r *msgRing) at(i int) *desMsg { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *msgRing) push(m *desMsg) {
	if r.n == len(r.buf) {
		grown := make([]*desMsg, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = m
	r.n++
}

func (r *msgRing) pop() *desMsg {
	m := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return m
}

// truncate drops every message past the first k.
func (r *msgRing) truncate(k int) {
	for r.n > k {
		r.n--
		r.buf[(r.head+r.n)&(len(r.buf)-1)] = nil
	}
}

// reset prepares this end's event state for a new pair incarnation.
// The admission semaphore, wake channel, reorder map and receive ring
// are allocated at most once and survive recycling; fresh marks a
// pair that has never been through the free list.
func (d *desConnState) reset(fresh bool) {
	if fresh {
		d.slots = make(chan struct{}, sendQueueLen)
	}
	d.msgSeq = 0
	d.dirFree = 0
	d.nextRecv = 1
	d.armed = false
	d.waiter = nil
}

// drain empties the recyclable state at pair recycle time. No holder
// is left (refs hit zero), so plain access is safe.
func (d *desConnState) drain() {
	for len(d.slots) > 0 {
		<-d.slots
	}
	clear(d.early)
	d.in.truncate(0)
	d.ready = 0
	d.waiter = nil
	select {
	case <-d.wake:
	default:
	}
}

// popReadyLocked takes the oldest delivered, unread payload. Callers
// hold des.mu.
func (d *desConnState) popReadyLocked() ([]byte, bool) {
	if d.ready == 0 {
		return nil, false
	}
	d.ready--
	return d.in.pop().payload, true
}

// wakeLocked rouses one parked blocking reader, if any. Callers hold
// des.mu.
func (d *desConnState) wakeLocked() {
	if d.parked == 0 {
		return
	}
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// desAirFree advances the (device, technology) airtime ledger: the
// returned start is when the radio frees (or now, if idle), and the
// radio is then held for busy beyond it.
func (n *Network) desAirFree(dev radio.Slot, tech radio.Technology, now int64, busy time.Duration) (start int64) {
	i := radioIndex(dev, tech)
	n.airMu.Lock()
	defer n.airMu.Unlock()
	if i >= len(n.airFree) {
		n.airFree = append(n.airFree, make([]int64, i+1-len(n.airFree))...)
	}
	start = n.airFree[i]
	if start < now {
		start = now
	}
	n.airFree[i] = start + int64(busy)
	return start
}

// desSend is the event engine's Send/SendDeadline: admission against
// the in-flight semaphore, an immediate fate draw, and one delivery
// event at the instant the modeled transfer completes.
func (c *Conn) desSend(payload []byte, deadline <-chan time.Time, cancel <-chan struct{}) error {
	sched := c.net.sched
	sched.Bump()
	msg := make([]byte, len(payload))
	copy(msg, payload)
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return c.errOrClosed()
	}
	select {
	case <-c.closed:
		c.mu.Unlock()
		return c.errOrClosed()
	default:
	}
	c.mu.Unlock()

	// Admission: the fast path takes a free slot without parking; the
	// slow path parks until delivery frees one, the conn dies, or the
	// deadline fires — the same outcomes a full sendQ gives the
	// goroutine engine.
	select {
	case c.des.slots <- struct{}{}:
	default:
		select {
		case c.des.slots <- struct{}{}:
		case <-c.closed:
			return c.errOrClosed()
		case <-deadline:
			return ErrSendTimeout
		case <-cancel:
			return ErrSendTimeout
		}
	}
	c.desLaunch(msg, sched.At)
	return nil
}

// desLaunch draws an admitted message's fate, advances the airtime and
// per-direction delivery ledgers, and schedules the delivery event
// through at — Scheduler.At for live-goroutine senders, Ctx.At for
// event senders (which keys the delivery from the calling event, so
// pure event-driver cascades replay byte-for-byte).
func (c *Conn) desLaunch(msg []byte, at func(d time.Duration, home uint64, fn func(ctx *des.Ctx))) {
	env := c.net.env
	scale := env.Scale()
	phy := env.PHY(c.tech)
	plan := c.net.faultPlan()
	transfer := phy.TransferTime(len(msg))
	var fate faults.Fate
	var stall time.Duration

	d := c.des
	d.mu.Lock()
	d.msgSeq++
	seq := d.msgSeq
	if plan != nil {
		elapsed := env.Elapsed()
		transfer = plan.ScaleTransfer(transfer, elapsed)
		fate = plan.MessageFate(c.local, c.remote, c.connSeq, seq, elapsed)
		if plan.AffectsEndpoints() {
			transfer = time.Duration(float64(transfer) * plan.ServeScale(c.local, elapsed))
			stall = plan.StallDelay(c.local, c.remote, c.connSeq, seq, elapsed)
		}
	}
	charges := time.Duration(1 + fate.Retransmits)
	busy := charges * scale.ToReal(transfer)
	now := c.net.sched.NowNS()
	// The pump's shape: stall first (not holding the radio), then the
	// radio for every charge, then the fate's extra delay.
	ready := now + int64(scale.ToReal(stall))
	txStart := c.net.desAirFree(c.lslot, c.tech, ready, busy)
	deliverAt := txStart + int64(busy) + int64(scale.ToReal(fate.Delay))
	if deliverAt <= d.dirFree {
		deliverAt = d.dirFree + 1
	}
	d.dirFree = deliverAt
	d.mu.Unlock()

	c.pending.Add(1)
	m := &desMsg{seq: seq, payload: msg, fate: fate, plan: plan}
	c.pair.ref() // the delivery event holds the pair until it runs
	at(time.Duration(deliverAt-now), homeOf(c.remote), func(ctx *des.Ctx) {
		defer c.unref()
		c.desDeliver(ctx, m)
	})
}

// desRelease returns one message's admission: the sender's pending
// count and in-flight slot.
func (c *Conn) desRelease() {
	c.pending.Done()
	<-c.des.slots
}

// desDeliver is the delivery event for one message this end sent: it
// applies the drawn fate in the pump's exact order and hands the
// payload to the peer's ordered receive path.
func (c *Conn) desDeliver(ctx *des.Ctx, m *desMsg) {
	n := c.net
	n.sched.Bump()
	if !c.Alive() {
		c.desAbandon()
		return
	}
	if m.fate.Retransmits > 0 {
		n.counters.messagesRetransmitted.Add(uint64(m.fate.Retransmits))
	}
	if m.fate.Reset {
		c.desAbandon()
		n.counters.linkFailures.Add(1)
		c.desTeardown(ctx, fmt.Errorf("%w: %s -> %s over %v (retransmission budget exhausted)", ErrLinkLost, c.local, c.remote, c.tech))
		return
	}
	if m.fate.Corrupt {
		m.payload = m.plan.Corrupt(m.payload, c.local, c.remote, c.connSeq, m.seq)
		n.counters.messagesCorrupted.Add(1)
	}
	if !c.linkUp() {
		c.desAbandon()
		n.counters.linkFailures.Add(1)
		c.desTeardown(ctx, fmt.Errorf("%w: %s -> %s over %v", ErrLinkLost, c.local, c.remote, c.tech))
		return
	}
	p := c.peer
	p.des.mu.Lock()
	if m.seq != p.des.nextRecv {
		// A clamped event time let this message outrun an earlier one:
		// park it; the sequence gate delivers it in order.
		if p.des.early == nil {
			p.des.early = make(map[uint64]*desMsg)
		}
		p.des.early[m.seq] = m
		p.des.mu.Unlock()
		return
	}
	p.des.enqueueLocked(m)
	arm := p.desFlushLocked() && !p.des.armed
	if arm {
		p.des.armed = true
	}
	fn, payload, ok := p.desPopWaiterLocked()
	p.des.mu.Unlock()
	if arm {
		p.pair.ref()
		ctx.At(n.env.Scale().ToReal(desFlushRetry), homeOf(c.remote), p.desFlushEventRef)
	}
	if ok {
		fn(ctx, payload, nil)
	}
}

// desPopWaiterLocked pairs the armed RecvEvent waiter with the next
// queued payload; both must exist. Callers hold des.mu and invoke the
// returned continuation after unlocking. This event runs on
// homeOf(receiver) — the same home every delivery to this end uses —
// so waiter hand-off order is the event order, not a race.
func (c *Conn) desPopWaiterLocked() (recvFn, []byte, bool) {
	if c.des.waiter == nil {
		return nil, nil, false
	}
	msg, ok := c.des.popReadyLocked()
	if !ok {
		return nil, nil, false
	}
	fn := c.des.waiter
	c.des.waiter = nil
	return fn, msg, true
}

// desTeardown fails both ends from inside an event: armed RecvEvent
// waiters are popped first and their error callbacks scheduled as
// children of this event — keyed by the cascade, not the global
// counter, so event-driver teardown replays byte-for-byte. The
// callback drains any already-delivered message before reporting the
// close, matching Recv's drain-after-close.
func (c *Conn) desTeardown(ctx *des.Ctx, err error) {
	ends := [2]*Conn{c, c.peer}
	var fns [2]recvFn
	for i, e := range ends {
		e.des.mu.Lock()
		fns[i] = e.des.waiter
		e.des.waiter = nil
		e.des.mu.Unlock()
	}
	c.failBoth(err)
	for i, fn := range fns {
		if fn == nil {
			continue
		}
		e, fn := ends[i], fn
		e.pair.ref()
		ctx.At(0, homeOf(e.local), func(ctx *des.Ctx) {
			defer e.unref()
			e.desRecvAfterClose(ctx, fn)
		})
	}
}

// desNotifyWaiter is the fail-path hook for conn deaths that happen
// outside any event (network close, abort, the goroutine-driver
// oracle): it schedules the armed waiter's error callback through the
// global counter. Event-path teardown (desTeardown) pops the waiter
// first, so this never double-fires.
func (c *Conn) desNotifyWaiter() {
	c.des.mu.Lock()
	fn := c.des.waiter
	c.des.waiter = nil
	c.des.mu.Unlock()
	if fn == nil {
		return
	}
	c.pair.ref()
	c.net.sched.At(0, homeOf(c.local), func(ctx *des.Ctx) {
		defer c.unref()
		c.desRecvAfterClose(ctx, fn)
	})
}

// desRecvAfterClose completes a RecvEvent waiter on a dead conn: an
// already-delivered message first, then the close error.
func (c *Conn) desRecvAfterClose(ctx *des.Ctx, fn recvFn) {
	c.des.mu.Lock()
	msg, ok := c.des.popReadyLocked()
	c.des.mu.Unlock()
	if ok {
		fn(ctx, msg, nil)
		return
	}
	fn(ctx, nil, c.errOrClosed())
}

// desRecv is the event engine's blocking Recv: it takes the oldest
// delivered message, or parks until a delivery, the conn's death or
// ctx's end. Messages delivered before a link loss stay readable.
// Several goroutines may read one end; each message goes to exactly
// one of them.
func (c *Conn) desRecv(ctx context.Context) ([]byte, error) {
	d := c.des
	d.mu.Lock()
	for {
		if msg, ok := d.popReadyLocked(); ok {
			if d.ready > 0 {
				d.wakeLocked() // pass the turn to the next parked reader
			}
			d.mu.Unlock()
			return msg, nil
		}
		if !c.Alive() {
			d.mu.Unlock()
			return nil, c.errOrClosed()
		}
		if d.wake == nil {
			d.wake = make(chan struct{}, 1)
		}
		d.parked++
		d.mu.Unlock()
		var err error
		select {
		case <-d.wake:
		case <-c.closed:
		case <-ctx.Done():
			err = ctx.Err()
		}
		d.mu.Lock()
		d.parked--
		if err != nil {
			if d.ready > 0 {
				d.wakeLocked() // a token meant for this reader goes on
			} else if d.parked == 0 {
				select { // nobody is left to take a token
				case <-d.wake:
				default:
				}
			}
			d.mu.Unlock()
			return nil, err
		}
	}
}

// enqueueLocked appends an in-sequence arrival and pulls any parked
// successors after it. Callers hold des.mu.
func (d *desConnState) enqueueLocked(m *desMsg) {
	d.in.push(m)
	d.nextRecv++
	for len(d.early) > 0 {
		next, ok := d.early[d.nextRecv]
		if !ok {
			return
		}
		delete(d.early, d.nextRecv)
		d.in.push(next)
		d.nextRecv++
	}
}

// desFlushLocked delivers parked arrivals while the receive queue has
// room, charging the delivery counters, returning the sender's
// admission per message and waking a parked blocking reader — the
// event-engine twin of the pump's recvQ handoff. It reports whether
// messages remain parked. Callers hold c.des.mu; c is the RECEIVING
// end (the messages came from c.peer).
func (c *Conn) desFlushLocked() bool {
	d := c.des
	moved := false
	for d.ready < d.in.n {
		if d.ready == sendQueueLen {
			break // receive queue full: retry event takes over
		}
		m := d.in.at(d.ready)
		d.ready++
		moved = true
		c.net.counters.messagesDelivered.Add(1)
		c.net.counters.bytesDelivered.Add(uint64(len(m.payload)))
		c.peer.desRelease()
	}
	if moved {
		d.wakeLocked()
	}
	return d.ready < d.in.n
}

// desFlushEvent retries parked deliveries; it re-arms itself while the
// backlog lasts and drains the backlog outright once the conn dies.
func (c *Conn) desFlushEvent(ctx *des.Ctx) {
	c.net.sched.Bump()
	if !c.Alive() {
		c.desDrainReceiver()
		return
	}
	c.des.mu.Lock()
	again := c.desFlushLocked()
	c.des.armed = again
	fn, payload, ok := c.desPopWaiterLocked()
	c.des.mu.Unlock()
	if again {
		c.pair.ref()
		ctx.At(c.net.env.Scale().ToReal(desFlushRetry), homeOf(c.local), c.desFlushEventRef)
	}
	if ok {
		fn(ctx, payload, nil)
	}
}

// desFlushEventRef runs desFlushEvent under the pair hold its
// scheduling site took; every flush-retry arm pairs ref() with this
// wrapper so a parked retry can never outlive its pair.
func (c *Conn) desFlushEventRef(ctx *des.Ctx) {
	defer c.unref()
	c.desFlushEvent(ctx)
}

// desAbandon drops the in-hand undeliverable message plus everything
// parked on the same direction, returning every admission so Close
// never waits on traffic that can no longer flow. c is the SENDING
// end.
func (c *Conn) desAbandon() {
	c.desRelease()
	c.peer.desDrainReceiver()
}

// desDrainReceiver clears this end's parked arrivals (in-order backlog
// and out-of-order waiters), returning each message's admission to the
// sending peer.
func (c *Conn) desDrainReceiver() {
	d := c.des
	d.mu.Lock()
	dropped := d.in.n - d.ready + len(d.early)
	d.in.truncate(d.ready)
	clear(d.early)
	d.mu.Unlock()
	for i := 0; i < dropped; i++ {
		c.peer.desRelease()
	}
}

// desSweepEvent is the event-engine link sweep: the same dead-link
// check as sweepLinks, re-arming itself every modeled
// linkCheckInterval and retiring when the network closes or the last
// connection dies (trackConn re-arms it for the next one).
func (n *Network) desSweepEvent(ctx *des.Ctx) {
	n.mu.Lock()
	if n.closed.Load() || len(n.conns) == 0 {
		n.sweeping = false
		n.mu.Unlock()
		return
	}
	live := n.holdConnsLocked()
	n.mu.Unlock()
	for _, c := range live {
		if !c.linkUp() {
			n.counters.linkFailures.Add(1)
			c.desTeardown(ctx, fmt.Errorf("%w: %s <-> %s over %v", ErrLinkLost, c.local, c.remote, c.tech))
		}
		c.unref()
	}
	ctx.At(n.sweepInterval(), sweepHome, n.desSweepEvent)
}

// sweepInterval is the real-scaled link-check period (shared with the
// goroutine sweeper's timer).
func (n *Network) sweepInterval() time.Duration {
	interval := n.env.Scale().ToReal(linkCheckInterval)
	if interval <= 0 {
		interval = time.Millisecond
	}
	return interval
}

// armSweepEvent schedules the first sweep after trackConn flips
// n.sweeping on an event-engine network.
func (n *Network) armSweepEvent() {
	n.sched.At(n.sweepInterval(), sweepHome, n.desSweepEvent)
}
