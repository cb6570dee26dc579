package gossip

import (
	"context"
	"errors"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interest"
	"repro/internal/netsim"
	"repro/internal/radio"
)

// Port is the listener port every gossip node binds. It lives next to
// the daemon/community service ports in the device's port namespace.
const Port = "gossip"

// Config tunes the epidemic. The zero value is normalized to the
// defaults below (mirroring the PeerSim exemplar knobs: greedy rumor
// mongering, bloom_false_positive 0.01, periodic anti-entropy,
// CyclonSN shuffle).
type Config struct {
	// Fanout is how many rumor pushes a node attempts per round.
	Fanout int
	// HotCount is a fresh rumor's initial hot counter; each push the
	// receiver already knew decays it by one, and at zero the node
	// stops pushing the rumor (greedy feedback-counter mongering).
	HotCount int
	// BloomFP is the configured false-positive rate of "have" digests.
	BloomFP float64
	// AEEvery runs one anti-entropy exchange every AEEvery-th round.
	AEEvery int
	// ViewSize caps the peer-sampling view.
	ViewSize int
	// Shuffle is how many view entries ride on each frame.
	Shuffle int
	// DisableRumors suppresses the push phase entirely — convergence
	// then rests on anti-entropy alone (the chaos suite uses this to
	// prove the anti-entropy guarantee in isolation).
	DisableRumors bool
	// DisableAntiEntropy suppresses the periodic reconciliation.
	DisableAntiEntropy bool
}

func (c Config) withDefaults() Config {
	if c.Fanout <= 0 {
		c.Fanout = 1
	}
	if c.HotCount <= 0 {
		c.HotCount = 2
	}
	if c.BloomFP <= 0 || c.BloomFP >= 1 {
		c.BloomFP = 0.01
	}
	if c.AEEvery <= 0 {
		c.AEEvery = 4
	}
	if c.ViewSize <= 0 {
		c.ViewSize = 16
	}
	if c.Shuffle <= 0 {
		c.Shuffle = 4
	}
	return c
}

// Stats counts one node's gossip activity. All counters are
// monotonically increasing; Add folds another node's counters in, so a
// deployment can report fleet totals.
type Stats struct {
	Rounds           uint64 // Round calls
	PushesSent       uint64 // rumor frames pushed
	PushesSkipped    uint64 // pushes skipped because the cached digest covered every hot rumor
	PushErrors       uint64 // rumor exchanges that failed (dial/send/recv)
	RumorRecordsSent uint64 // records carried by pushed rumor frames
	RumorsDied       uint64 // hot counters that decayed to zero
	RecordsLearned   uint64 // fresh records applied (any source)
	AERuns           uint64 // anti-entropy exchanges initiated
	AEErrors         uint64 // anti-entropy exchanges that failed
	AERecordsPulled  uint64 // records learned from anti-entropy replies
	AERecordsPushed  uint64 // records sent in closing anti-entropy deltas
	FramesIn         uint64 // well-formed frames served
	FramesRejected   uint64 // frames that failed decode
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Rounds += other.Rounds
	s.PushesSent += other.PushesSent
	s.PushesSkipped += other.PushesSkipped
	s.PushErrors += other.PushErrors
	s.RumorRecordsSent += other.RumorRecordsSent
	s.RumorsDied += other.RumorsDied
	s.RecordsLearned += other.RecordsLearned
	s.AERuns += other.AERuns
	s.AEErrors += other.AEErrors
	s.AERecordsPulled += other.AERecordsPulled
	s.AERecordsPushed += other.AERecordsPushed
	s.FramesIn += other.FramesIn
	s.FramesRejected += other.FramesRejected
}

// Params wires a Node into a device.
type Params struct {
	Device ids.DeviceID
	Member ids.MemberID
	// Self supplies the local record (interests + store epoch) at the
	// top of every round; Member/Device are overwritten by the node.
	// The scenario wiring reads the live profile store, so an interest
	// edit bumps the epoch and becomes a fresh rumor automatically.
	Self func() Record
	// Neighbors supplies the current radio neighborhood — gossip only
	// ever dials devices that are actually in range, and group views
	// are intersected with this set (proximity groups, not global
	// membership).
	Neighbors func() []ids.DeviceID
	Net       *netsim.Network
	// Tech defaults to Bluetooth, the thesis's proximity technology.
	Tech radio.Technology
	// Sem is the shared taught-synonym layer; may be nil, and must
	// match the fan-out client's so both engines canon the same way.
	Sem  *interest.Semantics
	Seed int64
	Config
}

// Node is one device's gossip engine. It is driven externally:
// Round(ctx) executes one gossip round (rumor pushes, then possibly an
// anti-entropy exchange); nothing runs on a timer, which keeps the
// schedule deterministic under the sequential chaos driver and makes
// the node engine-agnostic (goroutine and DES transports both just
// call Round). Start installs the listener that serves the passive
// side.
type Node struct {
	dev       ids.DeviceID
	member    ids.MemberID
	self      func() Record
	neighbors func() []ids.DeviceID
	net       *netsim.Network
	tech      radio.Technology
	cfg       Config
	mgr       *core.Manager

	mu       sync.Mutex
	records  map[ids.MemberID]Record
	byDevice map[ids.DeviceID]ids.MemberID
	hot      map[ids.MemberID]int
	peerHave map[ids.DeviceID]*Bloom
	view     []ViewEntry
	rngState uint64
	round    uint64
	version  uint64
	stats    Stats

	srv *netsim.Server // nil until Start
}

// NewNode builds a node; call Start to begin serving.
func NewNode(p Params) (*Node, error) {
	if p.Device == "" || p.Member == "" {
		return nil, errors.New("gossip: missing device or member")
	}
	if p.Self == nil || p.Neighbors == nil || p.Net == nil {
		return nil, errors.New("gossip: missing Self, Neighbors or Net")
	}
	if p.Tech == radio.TechNone {
		p.Tech = radio.Bluetooth
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(p.Device))
	n := &Node{
		dev:       p.Device,
		member:    p.Member,
		self:      p.Self,
		neighbors: p.Neighbors,
		net:       p.Net,
		tech:      p.Tech,
		cfg:       p.Config.withDefaults(),
		mgr: core.NewManager(core.Member{
			Device: p.Device,
			ID:     p.Member,
		}, p.Sem),
		records:  make(map[ids.MemberID]Record),
		byDevice: make(map[ids.DeviceID]ids.MemberID),
		hot:      make(map[ids.MemberID]int),
		peerHave: make(map[ids.DeviceID]*Bloom),
		rngState: ids.Mix64(uint64(p.Seed) ^ h.Sum64()),
	}
	return n, nil
}

// Start binds the gossip port and serves inbound exchanges until Stop.
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv != nil {
		return errors.New("gossip: already started")
	}
	lis, err := n.net.Listen(n.dev, Port)
	if err != nil {
		return err
	}
	n.srv = lis.Serve(context.Background(), n.serve)
	return nil
}

// Stop closes the listener, cancels in-flight exchanges and waits for
// every handler (the leak checker holds us to that).
func (n *Node) Stop() {
	n.mu.Lock()
	srv := n.srv
	n.mu.Unlock()
	if srv != nil {
		srv.Stop()
	}
}

// --- record state ---

// applyLocked folds one remote record in; it reports true when the
// record was fresh (unknown member or newer epoch). Fresh records
// re-enter the hot set — the relay half of rumor mongering. Records
// claiming the local member identity are ignored: only the local store
// authors those.
func (n *Node) applyLocked(rec Record) bool {
	if rec.Member == "" || rec.Device == "" || rec.Member == n.member {
		return false
	}
	if cur, ok := n.records[rec.Member]; ok && rec.Epoch <= cur.Epoch {
		return false
	}
	n.records[rec.Member] = rec
	n.byDevice[rec.Device] = rec.Member
	n.hot[rec.Member] = n.cfg.HotCount
	n.version++
	n.stats.RecordsLearned++
	return true
}

// refreshSelf pulls the local record from the supplier; an epoch bump
// (interest edit, profile change) re-hots the self rumor.
func (n *Node) refreshSelf() {
	rec := n.self()
	rec.Member, rec.Device = n.member, n.dev
	n.mu.Lock()
	cur, ok := n.records[n.member]
	if !ok || rec.Epoch > cur.Epoch {
		n.records[n.member] = rec
		n.byDevice[n.dev] = n.member
		n.hot[n.member] = n.cfg.HotCount
		n.version++
	}
	n.mu.Unlock()
}

// decayHotLocked applies redundant-push feedback for one record; the
// epoch guard keeps a stale ack from decaying a rumor that was re-hotted
// by a newer epoch meanwhile.
func (n *Node) decayHotLocked(rec Record) {
	cur, ok := n.records[rec.Member]
	if !ok || cur.Epoch != rec.Epoch {
		return
	}
	h, ok := n.hot[rec.Member]
	if !ok {
		return
	}
	h--
	if h <= 0 {
		delete(n.hot, rec.Member)
		n.stats.RumorsDied++
		return
	}
	n.hot[rec.Member] = h
}

// hotRecordsLocked snapshots the hot set sorted by member.
func (n *Node) hotRecordsLocked() []Record {
	if len(n.hot) == 0 {
		return nil
	}
	out := make([]Record, 0, len(n.hot))
	for m := range n.hot {
		if rec, ok := n.records[m]; ok {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}

// buildBloomLocked digests the full record set under a fresh rng salt.
func (n *Node) buildBloomLocked() *Bloom {
	b := NewBloom(len(n.records), n.cfg.BloomFP, n.nextRand())
	for _, rec := range n.records {
		b.Add(rec.Key())
	}
	return b
}

// missingLocked returns the records a peer's digest does not cover,
// sorted by member.
func (n *Node) missingLocked(have *Bloom) []Record {
	var out []Record
	for _, rec := range n.records {
		if !have.Has(rec.Key()) {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}

func maskBit(mask []byte, i int) bool {
	if i>>3 >= len(mask) {
		return false
	}
	return mask[i>>3]&(1<<(i&7)) != 0
}

// --- active side ---

// Round executes one gossip round: refresh the local record, push hot
// rumors to socially sampled partners, and every AEEvery-th round run
// one anti-entropy reconciliation with a uniformly drawn neighbor.
func (n *Node) Round(ctx context.Context) {
	n.refreshSelf()
	n.mu.Lock()
	n.round++
	r := n.round
	n.stats.Rounds++
	n.mu.Unlock()
	neigh := append([]ids.DeviceID(nil), n.neighbors()...)
	sort.Slice(neigh, func(i, j int) bool { return neigh[i] < neigh[j] })
	if len(neigh) > 0 {
		if !n.cfg.DisableRumors {
			n.pushRumors(ctx, neigh)
		}
		if !n.cfg.DisableAntiEntropy && r%uint64(n.cfg.AEEvery) == 0 {
			n.antiEntropy(ctx, neigh)
		}
	}
	n.mu.Lock()
	n.ageView()
	n.mu.Unlock()
}

func (n *Node) pushRumors(ctx context.Context, neigh []ids.DeviceID) {
	n.mu.Lock()
	hotRecs := n.hotRecordsLocked()
	n.mu.Unlock()
	if len(hotRecs) == 0 {
		return
	}
	used := make(map[ids.DeviceID]bool, n.cfg.Fanout)
	for i := 0; i < n.cfg.Fanout; i++ {
		n.mu.Lock()
		partner := n.pickPartner(neigh, used)
		var fresh []Record
		if partner != "" {
			have := n.peerHave[partner]
			for _, rec := range hotRecs {
				if !have.Has(rec.Key()) {
					fresh = append(fresh, rec)
				}
			}
			if len(fresh) == 0 {
				n.stats.PushesSkipped++
			}
		}
		n.mu.Unlock()
		if partner == "" {
			return
		}
		used[partner] = true
		if len(fresh) == 0 {
			continue
		}
		n.exchangeRumor(ctx, partner, fresh)
	}
}

func (n *Node) exchangeRumor(ctx context.Context, partner ids.DeviceID, fresh []Record) {
	n.mu.Lock()
	frame := MarshalRumor(FrameRumor{From: n.dev, Records: fresh, View: n.viewSample()})
	n.mu.Unlock()
	conn, err := n.net.Dial(ctx, n.dev, partner, n.tech, Port)
	if err != nil {
		n.notePushError(partner)
		return
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send(frame); err != nil {
		n.notePushError(partner)
		return
	}
	resp, err := conn.Recv(ctx)
	if err != nil {
		n.notePushError(partner)
		return
	}
	ack, err := UnmarshalAck(resp)
	if err != nil {
		n.mu.Lock()
		n.stats.FramesRejected++
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	n.stats.PushesSent++
	n.stats.RumorRecordsSent += uint64(len(fresh))
	for i, rec := range fresh {
		if maskBit(ack.KnownMask, i) {
			n.decayHotLocked(rec)
		}
	}
	if ack.Bloom != nil {
		n.peerHave[partner] = ack.Bloom
	}
	n.mergeView(ack.View, "", "")
	n.mu.Unlock()
}

// notePushError records a failed exchange and drops the partner's
// cached digest — after an error we no longer know what they have.
func (n *Node) notePushError(partner ids.DeviceID) {
	n.mu.Lock()
	n.stats.PushErrors++
	delete(n.peerHave, partner)
	n.mu.Unlock()
}

// antiEntropy runs one push-pull reconciliation: send our digest, pull
// the partner's missing records (plus their digest), push back what
// they lack, and wait for their closing ack so the exchange is fully
// applied on both sides before the round returns.
func (n *Node) antiEntropy(ctx context.Context, neigh []ids.DeviceID) {
	n.mu.Lock()
	partner := n.pickUniform(neigh)
	var frame []byte
	if partner != "" {
		frame = MarshalDigest(FrameDigest{From: n.dev, Bloom: n.buildBloomLocked(), View: n.viewSample()})
	}
	n.mu.Unlock()
	if partner == "" {
		return
	}
	fail := func() {
		n.mu.Lock()
		n.stats.AEErrors++
		delete(n.peerHave, partner)
		n.mu.Unlock()
	}
	conn, err := n.net.Dial(ctx, n.dev, partner, n.tech, Port)
	if err != nil {
		fail()
		return
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send(frame); err != nil {
		fail()
		return
	}
	resp, err := conn.Recv(ctx)
	if err != nil {
		fail()
		return
	}
	delta, err := UnmarshalDelta(resp)
	if err != nil {
		n.mu.Lock()
		n.stats.FramesRejected++
		n.mu.Unlock()
		fail()
		return
	}
	n.mu.Lock()
	pulled := uint64(0)
	for _, rec := range delta.Records {
		if n.applyLocked(rec) {
			pulled++
		}
	}
	var back []Record
	if delta.Bloom != nil {
		back = n.missingLocked(delta.Bloom)
		n.peerHave[partner] = delta.Bloom
	}
	closing := MarshalDelta(FrameDelta{From: n.dev, Records: back})
	n.stats.AERuns++
	n.stats.AERecordsPulled += pulled
	n.stats.AERecordsPushed += uint64(len(back))
	n.mu.Unlock()
	if err := conn.Send(closing); err != nil {
		fail()
		return
	}
	// The final ack guarantees the partner applied the closing delta
	// before this round completes (the sequential chaos driver relies
	// on rounds being fully settled when Round returns).
	if _, err := conn.Recv(ctx); err != nil {
		fail()
	}
}

// --- passive side ---

func (n *Node) serve(ctx context.Context, conn *netsim.Conn) {
	data, err := conn.Recv(ctx)
	if err != nil {
		return
	}
	kind, err := FrameKind(data)
	if err != nil {
		n.mu.Lock()
		n.stats.FramesRejected++
		n.mu.Unlock()
		return
	}
	switch kind {
	case kindRumor:
		n.serveRumor(conn, data)
	case kindDigest:
		n.serveDigest(ctx, conn, data)
	default:
		n.mu.Lock()
		n.stats.FramesRejected++
		n.mu.Unlock()
	}
}

func (n *Node) serveRumor(conn *netsim.Conn, data []byte) {
	f, err := UnmarshalRumor(data)
	if err != nil {
		n.mu.Lock()
		n.stats.FramesRejected++
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	n.stats.FramesIn++
	mask := make([]byte, (len(f.Records)+7)/8)
	for i, rec := range f.Records {
		if !n.applyLocked(rec) {
			mask[i>>3] |= 1 << (i & 7)
		}
	}
	n.mergeView(f.View, "", "")
	ack := MarshalAck(FrameAck{KnownMask: mask, Bloom: n.buildBloomLocked(), View: n.viewSample()})
	n.mu.Unlock()
	_ = conn.Send(ack)
}

func (n *Node) serveDigest(ctx context.Context, conn *netsim.Conn, data []byte) {
	f, err := UnmarshalDigest(data)
	if err != nil {
		n.mu.Lock()
		n.stats.FramesRejected++
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	n.stats.FramesIn++
	if f.Bloom != nil && f.From != "" {
		n.peerHave[f.From] = f.Bloom
	}
	n.mergeView(f.View, "", "")
	fresh := n.missingLocked(f.Bloom)
	reply := MarshalDelta(FrameDelta{From: n.dev, Records: fresh, Bloom: n.buildBloomLocked()})
	n.mu.Unlock()
	if err := conn.Send(reply); err != nil {
		return
	}
	data2, err := conn.Recv(ctx)
	if err != nil {
		return
	}
	closing, err := UnmarshalDelta(data2)
	if err != nil {
		n.mu.Lock()
		n.stats.FramesRejected++
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	for _, rec := range closing.Records {
		n.applyLocked(rec)
	}
	done := MarshalAck(FrameAck{})
	n.mu.Unlock()
	_ = conn.Send(done)
}

// --- views ---

// Refresh recomputes the group view from the gossiped records
// intersected with the current radio neighborhood and returns the
// resulting membership events. Groups stay proximity-scoped: a record
// learned transitively only counts while its device is in range, which
// is exactly the fan-out engine's (and the oracle's) semantics.
func (n *Node) Refresh() []core.Event {
	n.refreshSelf()
	neigh := n.neighbors()
	n.mu.Lock()
	self := n.records[n.member]
	nearby := make([]core.Member, 0, len(neigh))
	for _, dev := range neigh {
		if dev == n.dev {
			continue
		}
		m, ok := n.byDevice[dev]
		if !ok {
			continue
		}
		rec, ok := n.records[m]
		if !ok || rec.Device != dev {
			continue
		}
		nearby = append(nearby, core.Member{
			Device:    rec.Device,
			ID:        rec.Member,
			Interests: append([]string(nil), rec.Interests...),
		})
	}
	n.mu.Unlock()
	sort.Slice(nearby, func(i, j int) bool { return nearby[i].ID < nearby[j].ID })
	n.mgr.SetInterests(self.Interests)
	return n.mgr.Update(nearby)
}

// Groups returns the current group view (call Refresh first).
func (n *Node) Groups() []core.Group { return n.mgr.Groups() }

// Version is a monotonic counter of record-state changes; a stable
// fleet-wide sum across rounds means the epidemic has quiesced.
func (n *Node) Version() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.version
}

// Stats snapshots the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Records snapshots the known records sorted by member.
func (n *Node) Records() []Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Record, 0, len(n.records))
	for _, rec := range n.records {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}

// HasRecord reports whether the node knows a record for the device at
// at least the given epoch.
func (n *Node) HasRecord(dev ids.DeviceID, epoch uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.byDevice[dev]
	if !ok {
		return false
	}
	rec, ok := n.records[m]
	return ok && rec.Device == dev && rec.Epoch >= epoch
}
