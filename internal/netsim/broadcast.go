package netsim

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/radio"
)

// Broadcast is one received broadcast datagram.
type Broadcast struct {
	From    ids.DeviceID
	Tech    radio.Technology
	Port    string
	Payload []byte
}

// BroadcastSub receives broadcasts addressed to a device port. The
// thesis's WLANPlugin uses broadcast-based service discovery (§4.2.3);
// daemons subscribe here to hear discovery probes.
type BroadcastSub struct {
	net  *Network
	key  portKey
	ch   chan Broadcast
	done chan struct{}
	once sync.Once
}

// SubscribeBroadcast registers a device to receive broadcasts sent to
// the given port over any technology it carries.
func (n *Network) SubscribeBroadcast(dev ids.DeviceID, port string) (*BroadcastSub, error) {
	if !n.env.Has(dev) {
		return nil, fmt.Errorf("netsim: subscribe: %w: %q", radio.ErrUnknownDevice, dev)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return nil, ErrNetworkClosed
	}
	key := portKey{dev: dev, port: port}
	sub := &BroadcastSub{
		net:  n,
		key:  key,
		ch:   make(chan Broadcast, 64),
		done: make(chan struct{}),
	}
	n.subscribers[key] = append(n.subscribers[key], sub)
	return sub, nil
}

// Recv blocks for the next broadcast.
func (s *BroadcastSub) Recv(ctx context.Context) (Broadcast, error) {
	select {
	case b := <-s.ch:
		return b, nil
	case <-s.done:
		return Broadcast{}, ErrConnClosed
	case <-ctx.Done():
		return Broadcast{}, ctx.Err()
	}
}

// Close unsubscribes.
func (s *BroadcastSub) Close() {
	s.net.mu.Lock()
	subs := s.net.subscribers[s.key]
	for i, other := range subs {
		if other == s {
			s.net.subscribers[s.key] = append(subs[:i:i], subs[i+1:]...)
			break
		}
	}
	s.net.mu.Unlock()
	s.once.Do(func() { close(s.done) })
}

// SendBroadcast delivers a datagram to every reachable subscriber on
// the port after the PHY transfer time. Delivery is best-effort: each
// copy is independently subject to the configured loss rate, and
// subscribers with full buffers miss it. It returns the number of
// copies delivered.
//
// Reachability of the whole target set is resolved with one
// grid-indexed neighbor query at a single epoch instead of a per-pair
// radio check per subscriber, so a discovery probe into a
// thousand-subscriber world costs one O(occupancy) scan, not n
// environment round trips.
func (n *Network) SendBroadcast(from ids.DeviceID, tech radio.Technology, port string, payload []byte) (int, error) {
	if !tech.Valid() {
		return 0, fmt.Errorf("netsim: broadcast: invalid technology %v", tech)
	}
	if !n.env.Has(from) {
		return 0, fmt.Errorf("netsim: broadcast: %w: %q", radio.ErrUnknownDevice, from)
	}
	n.mu.Lock()
	if n.closed.Load() {
		n.mu.Unlock()
		return 0, ErrNetworkClosed
	}
	loss := n.lossRate
	// Snapshot matching subscribers under the lock.
	type target struct {
		dev ids.DeviceID
		sub *BroadcastSub
	}
	var targets []target
	for key, subs := range n.subscribers {
		if key.port != port {
			continue
		}
		for _, sub := range subs {
			targets = append(targets, target{dev: key.dev, sub: sub})
		}
	}
	// Draw loss decisions in a deterministic order: consuming the seeded
	// rng in map-iteration order would assign different drop fates to
	// the same subscribers run to run, breaking seed replay. One
	// subscriber key matches per device at this port, so sorting by
	// device keeps each key's registration order intact.
	sort.SliceStable(targets, func(i, j int) bool { return targets[i].dev < targets[j].dev })
	// Pre-draw loss decisions under the lock so rng access is serialized.
	drops := make([]bool, len(targets))
	for i := range drops {
		drops[i] = loss > 0 && n.rng.Float64() < loss
	}
	n.mu.Unlock()

	n.counters.broadcastsSent.Add(1)
	phy := n.env.PHY(tech)
	n.sleepModeled(phy.TransferTime(len(payload)))

	// Resolve every target's reachability at one post-transfer epoch:
	// one neighbor-set query plus one partition snapshot replaces a
	// linkUp round trip per subscriber.
	reach := make(map[ids.DeviceID]bool)
	for _, dev := range n.env.Neighbors(from, tech) {
		reach[dev] = true
	}
	n.mu.Lock()
	closed := n.closed.Load()
	parted := make(map[devPair]bool, len(n.partitioned))
	for p := range n.partitioned {
		parted[p] = true
	}
	n.mu.Unlock()
	if closed {
		return 0, ErrNetworkClosed
	}

	plan := n.faultPlan()
	if !plan.SeversLinks() {
		plan = nil // the plan can never drop a target: skip per-pair checks
	}
	var elapsedNow time.Duration
	if plan != nil {
		elapsedNow = n.env.Elapsed()
	}

	delivered := 0
	for i, tgt := range targets {
		if drops[i] {
			continue
		}
		if !reach[tgt.dev] || parted[normPair(from, tgt.dev)] {
			continue
		}
		if plan != nil && plan.LinkDown(from, tgt.dev, elapsedNow) {
			continue
		}
		msg := Broadcast{From: from, Tech: tech, Port: port, Payload: append([]byte(nil), payload...)}
		select {
		case tgt.sub.ch <- msg:
			delivered++
		default:
			// Subscriber buffer full: datagram lost, like real UDP.
		}
	}
	return delivered, nil
}
