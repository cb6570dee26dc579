// Package netsim simulates the transport layer PeerHood's plugins use:
// reliable ordered message streams between devices in the radio
// environment, with per-technology latency and bandwidth, connection
// setup cost, link breakage when devices leave radio range, broadcast
// delivery for WLAN-style service discovery, and failure injection
// (partitions, broadcast loss) for robustness tests.
//
// A Conn is the moral equivalent of the L2CAP channel the thesis's
// BTPlugin offers ("ordered and reliable data delivery", §4.2.3): the
// network never reorders or corrupts messages, but it does sever the
// connection when the radio link dies.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/radio"
)

// Sentinel errors.
var (
	ErrUnreachable   = errors.New("netsim: peer unreachable")
	ErrNoListener    = errors.New("netsim: no listener on port")
	ErrPortInUse     = errors.New("netsim: port already in use")
	ErrConnClosed    = errors.New("netsim: connection closed")
	ErrLinkLost      = errors.New("netsim: radio link lost")
	ErrNetworkClosed = errors.New("netsim: network closed")
	ErrSendTimeout   = errors.New("netsim: send deadline exceeded")
)

// sendQueueLen bounds in-flight messages per direction; Send blocks
// when the queue is full, which models transmit-buffer backpressure.
const sendQueueLen = 256

// linkCheckInterval is the modeled interval at which the network's
// shared link sweep verifies the radio link under every established
// connection still holds, so idle connections notice separation too.
const linkCheckInterval = time.Second

// Network binds the transport to a radio environment.
type Network struct {
	env *radio.Environment

	mu          sync.Mutex
	listeners   map[portKey]*Listener
	subscribers map[portKey][]*BroadcastSub
	partitioned map[devPair]bool
	lossRate    float64
	rng         *rand.Rand
	conns       map[*Conn]bool // one end per live pair, for sweep + Close teardown
	sweeping    bool           // a sweepLinks goroutine is running

	// closed and parts mirror, for the lock-free link check, whether
	// the network is closed and how many partitions are installed; both
	// are written under mu. While parts is zero a link check never
	// touches mu.
	closed atomic.Bool
	parts  atomic.Int32

	// sweepWake (capacity 1) nudges the link sweeper out of its timer
	// wait when the network closes or the last connection dies, so the
	// goroutine exits promptly even under a paused manual clock.
	sweepWake chan struct{}

	counters netCounters

	// plan is the installed fault-injection plan (nil = clean links).
	// Loaded lock-free on every message so the disabled path costs one
	// atomic read.
	plan atomic.Pointer[faults.Plan]

	// pairSeq numbers connections per directed (dialer, listener) pair
	// of device slots (dirPairKey); the sequence plus a per-connection
	// message index keys every deterministic fault draw. Guarded by mu.
	pairSeq map[uint64]uint64

	// txLocks serializes transmissions per (device, technology), indexed
	// by radioIndex: a radio is a shared medium, so two connections
	// sending from the same device over the same technology contend for
	// airtime. Grown on demand under txMu.
	txMu    sync.Mutex
	txLocks []*sync.Mutex

	// sched selects the engine: nil runs the goroutine engine (conn
	// pumps + sweepLinks goroutine); non-nil runs the discrete-event
	// engine (engine_des.go), where sends schedule delivery events and
	// the sweep is a self-rescheduling event. Set once at construction,
	// never mutated.
	sched *des.Scheduler

	// airFree is the event engine's per-(device, technology) airtime
	// ledger, indexed by radioIndex — the virtual instant each radio
	// frees — standing in for txLocks, which serialize goroutines the
	// event engine doesn't have. Grown on demand under airMu.
	airMu   sync.Mutex
	airFree []int64

	// freePairs recycles connPair allocations (conn.go): at scale the
	// dial/close churn of discovery rounds dominated the allocation
	// profile, so a released pair is reset rather than reallocated. A
	// plain list, not a sync.Pool: the pool empties at every GC cycle,
	// and a sweep with tens of thousands of pairs in flight runs many.
	// It holds at most the peak number of pairs live at once.
	pairMu    sync.Mutex
	freePairs []*connPair
}

// radioIndex addresses one device radio — a (device slot, technology)
// pair — in the dense per-radio ledgers.
func radioIndex(dev radio.Slot, tech radio.Technology) int {
	return int(dev)*(int(radio.GPRS)+1) + int(tech)
}

// txLock returns the transmit mutex for a device radio.
func (n *Network) txLock(dev radio.Slot, tech radio.Technology) *sync.Mutex {
	n.txMu.Lock()
	defer n.txMu.Unlock()
	i := radioIndex(dev, tech)
	if i >= len(n.txLocks) {
		n.txLocks = append(n.txLocks, make([]*sync.Mutex, i+1-len(n.txLocks))...)
	}
	if n.txLocks[i] == nil {
		n.txLocks[i] = &sync.Mutex{}
	}
	return n.txLocks[i]
}

type portKey struct {
	dev  ids.DeviceID
	port string
}

type devPair struct {
	a, b ids.DeviceID
}

// dirPairKey is a direction-preserving device pair: connection
// sequence numbers are per dialing direction so that two peers dialing
// each other concurrently cannot perturb each other's fault draws.
func dirPairKey(from, to radio.Slot) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

func normPair(a, b ids.DeviceID) devPair {
	if a > b {
		a, b = b, a
	}
	return devPair{a: a, b: b}
}

// New returns a network over the given environment, on the goroutine
// engine.
func New(env *radio.Environment, seed int64) *Network {
	return &Network{
		env:         env,
		listeners:   make(map[portKey]*Listener),
		subscribers: make(map[portKey][]*BroadcastSub),
		partitioned: make(map[devPair]bool),
		rng:         rand.New(rand.NewSource(seed)),
		conns:       make(map[*Conn]bool),
		sweepWake:   make(chan struct{}, 1),
		pairSeq:     make(map[uint64]uint64),
	}
}

// NewDES returns a network driven by the given discrete-event
// scheduler instead of per-connection goroutines: same API, same
// semantics, but message transfers, fault fates and link sweeps are
// scheduled events, so virtual time advances by popping the event
// queue rather than sleeping. The environment must ride the same
// scheduler's clock (radio.WithClock(sched.Clock())), or transport
// events and radio time would disagree.
func NewDES(env *radio.Environment, seed int64, sched *des.Scheduler) *Network {
	n := New(env, seed)
	n.sched = sched
	return n
}

// Scheduler returns the discrete-event scheduler driving this network,
// or nil on the goroutine engine.
func (n *Network) Scheduler() *des.Scheduler { return n.sched }

// SetFaults installs (or, with nil, removes) a fault-injection plan on
// the transport: message fates, bandwidth throttling and link flaps /
// scheduled partitions all come from the plan's deterministic draws.
// Radio-side inquiry faults are installed separately with
// Environment.SetInquiryFaults, since the same plan serves both hooks.
func (n *Network) SetFaults(p *faults.Plan) {
	if p == nil {
		n.plan.Store(nil)
		return
	}
	n.plan.Store(p)
}

// faultPlan returns the installed plan, or nil.
func (n *Network) faultPlan() *faults.Plan { return n.plan.Load() }

// sortConnsDet orders connections deterministically — by dialer pair,
// then connection sequence — so that shutdown and sweep failures hit
// conns in a stable order instead of whatever order the conns map
// yields this run. Failure order is observable (error delivery,
// deregistration events), so it must replay.
func sortConnsDet(conns []*Conn) {
	sort.Slice(conns, func(i, j int) bool {
		a, b := conns[i], conns[j]
		if a.local != b.local {
			return a.local < b.local
		}
		if a.remote != b.remote {
			return a.remote < b.remote
		}
		return a.connSeq < b.connSeq
	})
}

// nextConnSeq numbers a new connection on its directed dialer pair.
func (n *Network) nextConnSeq(from, to radio.Slot) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := dirPairKey(from, to)
	n.pairSeq[key]++
	return n.pairSeq[key]
}

// ConnSeq reports how many connections have been dialed from one
// device to another so far; the next dial on the pair gets ConnSeq+1.
// Session-keyed fault draws (faults.Plan.SessionStalled) are pure in
// this number, so tests use it to pick seeds with known session fates.
func (n *Network) ConnSeq(from, to ids.DeviceID) uint64 {
	fs, okF := n.env.SlotOf(from)
	ts, okT := n.env.SlotOf(to)
	if !okF || !okT {
		return 0 // never added, so never dialed
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pairSeq[dirPairKey(fs, ts)]
}

// Environment returns the underlying radio environment.
func (n *Network) Environment() *radio.Environment { return n.env }

// Close shuts the network down; existing connections break and new
// operations fail. Breaking the connections (not just the listeners)
// also stops their pump goroutines and the shared link sweeper, so a
// closed network leaves nothing running.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed.Store(true)
	for _, l := range n.listeners {
		l.closeLocked()
	}
	n.listeners = make(map[portKey]*Listener)
	live := n.holdConnsLocked()
	n.conns = make(map[*Conn]bool)
	n.kickSweeperLocked()
	n.mu.Unlock()
	// Outside the lock: failing a conn re-enters the network to
	// deregister itself.
	for _, c := range live {
		c.failBoth(ErrNetworkClosed)
		c.unref()
	}
}

// trackConn registers one end of a new pair for the link sweep and
// Close teardown, starting the sweeper if it is not already running.
func (n *Network) trackConn(c *Conn) {
	n.mu.Lock()
	n.conns[c] = true
	start := !n.sweeping && !n.closed.Load()
	if start {
		n.sweeping = true
	}
	n.mu.Unlock()
	if start {
		if n.sched != nil {
			n.armSweepEvent()
		} else {
			go n.sweepLinks()
		}
	}
}

// dropConn removes a dead conn from the registry; no-op for the
// untracked end of a pair. When the last conn goes, the sweeper is
// nudged so it can retire instead of idling on its timer.
func (n *Network) dropConn(c *Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	if len(n.conns) == 0 {
		n.kickSweeperLocked()
	}
	n.mu.Unlock()
}

// holdConnsLocked returns the tracked conns in sortConnsDet order, each
// with a pair hold the caller drops after its unlocked walk: a tracked
// conn always has its user holds outstanding, so the ref can never
// resurrect a recycled pair. Callers hold n.mu.
func (n *Network) holdConnsLocked() []*Conn {
	live := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		c.pair.ref()
		live = append(live, c)
	}
	sortConnsDet(live)
	return live
}

// kickSweeperLocked wakes the link sweeper without blocking; callers
// hold n.mu. The capacity-1 channel coalesces pending kicks.
func (n *Network) kickSweeperLocked() {
	select {
	case n.sweepWake <- struct{}{}:
	default:
	}
}

// sweepLinks is the shared link watchdog: a single goroutine per
// Network that, every modeled linkCheckInterval, checks the radio link
// under every live connection and fails the dead ones with ErrLinkLost
// — the O(1)-goroutine replacement for the per-connection watchdog
// tickers the simulator started out with, which capped it at tens of
// devices. It exits when the network closes or the last connection
// dies, and trackConn restarts it for the next connection.
func (n *Network) sweepLinks() {
	interval := n.env.Scale().ToReal(linkCheckInterval)
	if interval <= 0 {
		interval = time.Millisecond
	}
	for {
		select {
		case <-n.env.Clock().After(interval):
		case <-n.sweepWake:
		}
		n.mu.Lock()
		if n.closed.Load() || len(n.conns) == 0 {
			n.sweeping = false
			n.mu.Unlock()
			return
		}
		live := n.holdConnsLocked()
		n.mu.Unlock()
		// Outside the lock: linkUp may re-enter n.mu and failing a conn
		// re-enters the network to deregister itself.
		for _, c := range live {
			if !c.linkUp() {
				n.counters.linkFailures.Add(1)
				c.failBoth(fmt.Errorf("%w: %s <-> %s over %v", ErrLinkLost, c.local, c.remote, c.tech))
			}
			c.unref()
		}
	}
}

// Partition severs all traffic between two devices regardless of radio
// range (failure injection).
func (n *Network) Partition(a, b ids.DeviceID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[normPair(a, b)] = true
	n.parts.Store(int32(len(n.partitioned)))
}

// Heal removes a partition.
func (n *Network) Heal(a, b ids.DeviceID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, normPair(a, b))
	n.parts.Store(int32(len(n.partitioned)))
}

// SetBroadcastLoss sets the probability in [0, 1] that any single
// broadcast delivery is dropped.
func (n *Network) SetBroadcastLoss(rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	n.lossRate = rate
}

// linkUp reports whether traffic may flow between two devices now. It
// resolves both IDs to radio slots and defers to slotLinkUp; the
// broadcast differential test uses it as its per-pair oracle.
func (n *Network) linkUp(a, b ids.DeviceID, tech radio.Technology) bool {
	sa, okA := n.env.SlotOf(a)
	sb, okB := n.env.SlotOf(b)
	return okA && okB && n.slotLinkUp(a, b, sa, sb, tech)
}

// slotLinkUp is the link check on resolved devices (IDs for the
// partition and fault draws, slots for the radio): the network is
// open, the pair is not partitioned or severed by the fault plan, and
// the radio reaches. While no partition is installed it takes no lock.
func (n *Network) slotLinkUp(a, b ids.DeviceID, sa, sb radio.Slot, tech radio.Technology) bool {
	if n.closed.Load() {
		return false
	}
	if n.parts.Load() > 0 {
		n.mu.Lock()
		part := n.partitioned[normPair(a, b)]
		n.mu.Unlock()
		if part {
			return false
		}
	}
	elapsed := n.env.Elapsed()
	if plan := n.faultPlan(); plan.SeversLinks() && plan.LinkDown(a, b, elapsed) {
		return false
	}
	return n.env.ReachableSlotsAt(sa, sb, tech, elapsed)
}

// linkUp reports whether the radio link under this conn still holds.
func (c *Conn) linkUp() bool {
	return c.net.slotLinkUp(c.local, c.remote, c.lslot, c.rslot, c.tech)
}

// dialSlots resolves the two ends of a dial. The target's slot comes
// from its listener on port when one is bound, so usually only the
// dialer's ID is looked up; ok is false when either device was never
// added to the environment, which no link check can pass.
func (n *Network) dialSlots(from, to ids.DeviceID, port string) (fs, ts radio.Slot, ok bool) {
	fs, ok = n.env.SlotOf(from)
	if !ok {
		return 0, 0, false
	}
	n.mu.Lock()
	l := n.listeners[portKey{dev: to, port: port}]
	n.mu.Unlock()
	if l != nil {
		return fs, l.slot, true
	}
	ts, ok = n.env.SlotOf(to)
	return fs, ts, ok
}

// sleepModeled sleeps a modeled duration on the environment's clock,
// shrunk by its latency scale.
func (n *Network) sleepModeled(d time.Duration) {
	n.env.Clock().Sleep(n.env.Scale().ToReal(d))
}

// Listen opens a named port on a device. The returned listener accepts
// connections dialed to (dev, port) over any technology.
func (n *Network) Listen(dev ids.DeviceID, port string) (*Listener, error) {
	if !n.env.Has(dev) {
		return nil, fmt.Errorf("netsim: listen: %w: %q", radio.ErrUnknownDevice, dev)
	}
	slot, _ := n.env.SlotOf(dev) // present, so it has a slot
	if port == "" {
		return nil, errors.New("netsim: listen: empty port")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return nil, ErrNetworkClosed
	}
	key := portKey{dev: dev, port: port}
	if _, ok := n.listeners[key]; ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrPortInUse, port, dev)
	}
	l := &Listener{
		net:      n,
		key:      key,
		slot:     slot,
		incoming: make(chan *Conn, 16),
		done:     make(chan struct{}),
	}
	n.listeners[key] = l
	return l, nil
}

// Dial connects from one device to a port on another over the given
// technology. It charges the PHY's connection-setup time and fails if
// the peer is unreachable or nothing is listening.
func (n *Network) Dial(ctx context.Context, from, to ids.DeviceID, tech radio.Technology, port string) (*Conn, error) {
	n.counters.dialsAttempted.Add(1)
	if !tech.Valid() {
		return nil, fmt.Errorf("netsim: dial: invalid technology %v", tech)
	}
	fs, ts, known := n.dialSlots(from, to, port)
	if !known || !n.slotLinkUp(from, to, fs, ts, tech) {
		return nil, fmt.Errorf("%w: %s -> %s over %v", ErrUnreachable, from, to, tech)
	}
	phy := n.env.PHY(tech)
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-n.env.Clock().After(n.env.Scale().ToReal(phy.ConnectSetup)):
	}
	// Re-check after setup: the peer may have walked away while paging.
	if !n.slotLinkUp(from, to, fs, ts, tech) {
		return nil, fmt.Errorf("%w: %s -> %s over %v (lost during setup)", ErrUnreachable, from, to, tech)
	}
	n.mu.Lock()
	l, ok := n.listeners[portKey{dev: to, port: port}]
	closed := n.closed.Load()
	n.mu.Unlock()
	if closed {
		return nil, ErrNetworkClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoListener, port, to)
	}

	local, remote := newConnPair(n, from, to, fs, ts, tech, port)
	select {
	case l.incoming <- remote:
		n.counters.connsEstablished.Add(1)
	case <-l.done:
		_ = local.Close()
		remote.releaseUser() // never handed to an acceptor
		return nil, fmt.Errorf("%w: %s on %s", ErrNoListener, port, to)
	case <-ctx.Done():
		_ = local.Close()
		remote.releaseUser() // never handed to an acceptor
		return nil, ctx.Err()
	}
	return local, nil
}

// Listener accepts inbound connections on a device port.
type Listener struct {
	net      *Network
	key      portKey
	slot     radio.Slot // the listening device's radio slot
	incoming chan *Conn
	done     chan struct{}
	once     sync.Once

	// acceptFn is the event-mode accept handler (AcceptEvent,
	// events.go); nil means inbound event dials use the Accept queue.
	acceptMu sync.Mutex
	acceptFn func(ctx *des.Ctx, c *Conn)
}

// Accept blocks until a connection arrives, the listener closes, or the
// context is done.
func (l *Listener) Accept(ctx context.Context) (*Conn, error) {
	select {
	case c := <-l.incoming:
		return c, nil
	case <-l.done:
		return nil, ErrConnClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Addr returns the device and port this listener is bound to.
func (l *Listener) Addr() (ids.DeviceID, string) { return l.key.dev, l.key.port }

// Close stops accepting; established connections are unaffected.
func (l *Listener) Close() {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	if l.net.listeners[l.key] == l {
		delete(l.net.listeners, l.key)
	}
	l.closeLocked()
}

func (l *Listener) closeLocked() {
	l.once.Do(func() { close(l.done) })
}
