package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// discovery-sweep: Figure 6 dynamic group discovery at scale on the
// event engine. Every device of a static, uniformly placed world runs
// rounds of: inquiry window, NeighborsAt, a fan-out-3 interest exchange
// as DialEvent → SendEvent → RecvEvent → CloseEvent continuations, and
// DiscoverGroups. It mirrors the event drivers of the harness's engine
// scaling sweep; each measured round is seeded from outside and drained
// with Scheduler.Run, so every round is timed on its own.
const (
	dsDevices     = 20000
	dsFanout      = 3
	dsShards      = 8
	dsCheckRounds = 2
)

// dsExpected is the committed outcome of the first dsCheckRounds rounds
// at defaultSeed. Any change to what the sweep does moves it.
var dsExpected = dsOutcome{hash: 0x7d633ffc3282d1b0, events: 503014, groups: 45142, delivered: 231504}

var dsPool = []string{"football", "biking", "music", "chess", "films", "news", "games", "food"}

func dsInterests(i int) []string {
	out := []string{dsPool[i%len(dsPool)]}
	if second := dsPool[(i*5+3)%len(dsPool)]; second != out[0] {
		out = append(out, second)
	}
	return out
}

func dsAd(dev ids.DeviceID, interests []string) []byte {
	return []byte("ad|" + string(dev) + "|" + strings.Join(interests, ","))
}

func dsParse(payload []byte) ([]string, bool) {
	parts := strings.Split(string(payload), "|")
	if len(parts) != 3 || parts[0] != "ad" {
		return nil, false
	}
	return strings.Split(parts[2], ","), true
}

// dsWorld is one built sweep world.
type dsWorld struct {
	sched   *des.Scheduler
	env     *radio.Environment
	net     *netsim.Network
	drivers []*dsDriver
	inquiry time.Duration

	// tr and runSpan are set before each Run and only read by the
	// event callbacks inside it.
	tr      *tracer
	runSpan *span

	groups        atomic.Int64
	exchanges     atomic.Int64
	exchangeFails atomic.Int64
	adsHeard      atomic.Int64
	neighFound    atomic.Int64
}

// buildDiscovery places the devices and arms every advertisement
// server; it is the timed set-up.
func buildDiscovery(seed int64, workers int) (*dsWorld, error) {
	seed += dsDevices
	sched := des.NewScheduler(seed, dsShards)
	sched.SetWorkers(workers)
	env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-3)), radio.WithClock(sched.Clock()))
	rng := rand.New(rand.NewSource(seed))
	side := 1.0
	for side*side < float64(dsDevices)*50 { // ~50 m² per device
		side *= 1.1
	}
	w := &dsWorld{sched: sched, env: env, inquiry: env.Scale().ToReal(env.PHY(radio.Bluetooth).InquiryDuration)}
	devs := make([]ids.DeviceID, dsDevices)
	for i := range devs {
		devs[i] = ids.DeviceIDf("dev-%04d", i)
		at := geo.Pt(rng.Float64()*side, rng.Float64()*side)
		if err := env.Add(devs[i], mobility.Static{At: at}, radio.Bluetooth); err != nil {
			return nil, err
		}
	}
	w.net = netsim.NewDES(env, seed, sched)
	for i, dev := range devs {
		l, err := w.net.Listen(dev, "esd")
		if err != nil {
			w.net.Close()
			return nil, err
		}
		self := core.Member{Device: dev, ID: ids.MemberID(dev), Interests: dsInterests(i)}
		srv := &dsServer{w: w, ad: dsAd(dev, self.Interests)}
		l.AcceptEvent(srv.serve)
		w.drivers = append(w.drivers, &dsDriver{w: w, dev: dev, home: netsim.DeviceHome(dev), self: self, ad: srv.ad})
	}
	return w, nil
}

// round runs one discovery round on every device and returns its host
// time.
func (w *dsWorld) round(tr *tracer) time.Duration {
	start := time.Now()
	w.tr = tr
	w.runSpan = tr.begin(nil, "des.run")
	for _, d := range w.drivers {
		w.sched.At(w.inquiry, d.home, d.startRound)
	}
	w.sched.Run()
	w.runSpan.end()
	return time.Since(start)
}

// callback opens the span of one benchmark event callback.
func (w *dsWorld) callback() *span { return w.tr.begin(w.runSpan, "bench.callback") }

// eventCall wraps one netsim event call in a span.
func (w *dsWorld) eventCall(parent *span, fn func() error) error {
	sp := w.tr.begin(parent, "netsim.event_call")
	err := fn()
	sp.end()
	return err
}

// dsServer answers every received advertisement with its own, as a
// chain of delivery events.
type dsServer struct {
	w  *dsWorld
	ad []byte
}

func (s *dsServer) serve(ctx *des.Ctx, c *netsim.Conn) {
	cb := s.w.callback()
	defer cb.end()
	s.w.eventCall(cb, func() error {
		c.RecvEvent(ctx, func(ctx *des.Ctx, _ []byte, err error) {
			cb := s.w.callback()
			defer cb.end()
			if err == nil {
				err = s.w.eventCall(cb, func() error { return c.SendEvent(ctx, s.ad) })
			}
			if err != nil {
				s.w.eventCall(cb, func() error { c.CloseEvent(ctx); return nil })
				return
			}
			s.serve(ctx, c)
		})
		return nil
	})
}

// dsDriver is one device's round as an event cascade; every
// continuation runs on the device's home, so its state needs no locks.
type dsDriver struct {
	w    *dsWorld
	dev  ids.DeviceID
	home uint64
	self core.Member
	ad   []byte

	round     int
	firstFull int // first round that heard the whole capped fan-out
	neigh     []ids.DeviceID
	j         int
	nearby    []core.Member
	startNS   int64
	modeled   time.Duration // modeled length of the last round
}

func (d *dsDriver) startRound(ctx *des.Ctx) {
	w := d.w
	cb := w.callback()
	defer cb.end()
	d.startNS = w.sched.NowNS()
	epoch := w.env.Elapsed().Truncate(w.env.PHY(radio.Bluetooth).InquiryDuration)
	sp := w.tr.begin(cb, "radio.neighbors")
	d.neigh = w.env.NeighborsAt(d.dev, radio.Bluetooth, epoch)
	sp.end()
	w.neighFound.Add(int64(len(d.neigh)))
	d.nearby = d.nearby[:0]
	d.j = 0
	d.nextExchange(ctx, cb)
}

// nextExchange dials the next capped-fanout neighbour, or finishes the
// round. A failure at any step moves on to the next neighbour.
func (d *dsDriver) nextExchange(ctx *des.Ctx, cb *span) {
	w := d.w
	if d.j >= dsFanout || d.j >= len(d.neigh) {
		d.finishRound(cb)
		return
	}
	peer := d.neigh[d.j]
	d.j++
	w.exchanges.Add(1)
	w.eventCall(cb, func() error {
		w.net.DialEvent(ctx, d.dev, peer, radio.Bluetooth, "esd", func(ctx *des.Ctx, c *netsim.Conn, err error) {
			cb := w.callback()
			defer cb.end()
			if err == nil {
				err = w.eventCall(cb, func() error { return c.SendEvent(ctx, d.ad) })
				if err != nil {
					w.eventCall(cb, func() error { c.CloseEvent(ctx); return nil })
				}
			}
			if err != nil {
				w.exchangeFails.Add(1)
				d.nextExchange(ctx, cb)
				return
			}
			w.eventCall(cb, func() error {
				c.RecvEvent(ctx, func(ctx *des.Ctx, msg []byte, err error) {
					cb := w.callback()
					defer cb.end()
					ints, ok := dsParse(msg)
					if err != nil || !ok {
						w.exchangeFails.Add(1)
					} else {
						w.adsHeard.Add(1)
						d.nearby = append(d.nearby, core.Member{Device: peer, ID: ids.MemberID(peer), Interests: ints})
					}
					w.eventCall(cb, func() error { c.CloseEvent(ctx); return nil })
					d.nextExchange(ctx, cb)
				})
				return nil
			})
		})
		return nil
	})
}

func (d *dsDriver) finishRound(cb *span) {
	w := d.w
	sp := w.tr.begin(cb, "core.discover_groups")
	groups := core.DiscoverGroups(d.self, d.nearby, nil)
	sp.end()
	w.groups.Add(int64(len(groups)))
	d.round++
	if d.firstFull == 0 && len(d.nearby) == min(dsFanout, len(d.neigh)) {
		d.firstFull = d.round
	}
	d.modeled = w.env.PHY(radio.Bluetooth).InquiryDuration +
		w.env.Scale().ToModeled(time.Duration(w.sched.NowNS()-d.startNS))
}

// dsOutcome is the deterministic outcome of the check rounds.
type dsOutcome struct {
	hash      uint64
	events    uint64
	groups    int64
	delivered uint64
}

func (o dsOutcome) fingerprint() uint64 { return digestOf(o.hash, o.events, o.groups, o.delivered) }

func (o dsOutcome) String() string {
	return fmt.Sprintf("hash=%016x events=%d groups=%d delivered=%d", o.hash, o.events, o.groups, o.delivered)
}

func (w *dsWorld) outcome(base netsim.Counters) dsOutcome {
	return dsOutcome{
		hash:      w.sched.TraceHash(),
		events:    w.sched.EventsExecuted(),
		groups:    w.groups.Load(),
		delivered: w.net.Counters().MessagesDelivered - base.MessagesDelivered,
	}
}

// dsSnap is the world's counters at a phase boundary.
type dsSnap struct {
	net                                     netsim.Counters
	events                                  uint64
	exchanges, fails, ads, groups, neighbor int64
}

func (w *dsWorld) snap() dsSnap {
	return dsSnap{
		net: w.net.Counters(), events: w.sched.EventsExecuted(),
		exchanges: w.exchanges.Load(), fails: w.exchangeFails.Load(), ads: w.adsHeard.Load(),
		groups: w.groups.Load(), neighbor: w.neighFound.Load(),
	}
}

// dsPhase is what one measured phase saw.
type dsPhase struct {
	from, to    dsSnap
	rounds      int
	busy        time.Duration
	cpu         time.Duration // process CPU time of the measured rounds
	roundRate   []float64     // per round: device-rounds per wall second
	roundGroups []int64
	modeled     []float64 // per device round that exchanged, modeled seconds
	firstFull   []float64
}

func runDiscovery(cfg config) (*report, error) {
	rep := newReport()

	// Set-up: build the world over the set-up budget, report the
	// median, keep the last.
	var w *dsWorld
	setup, builds, err := timeSetups(func() (err error) {
		w, err = buildDiscovery(cfg.seed, cfg.workers)
		return err
	}, func() { w.net.Close() })
	if err != nil {
		return nil, err
	}
	rep.note("set-up: %d world builds, median %.4gs", builds, setup)

	base := w.net.Counters()
	var checkOut dsOutcome
	var checkWall time.Duration
	var ph [2]dsPhase
	// The first round is the warm-up: it builds the first radio snapshot
	// and grows the heap to its working size. It counts towards the
	// check rounds but not towards any throughput figure.
	warmWall := w.round(nil)
	checkWall = warmWall
	warmGroups := w.groups.Load()
	rounds := 1
	plain, traced := phases(cfg, func(tr *tracer, budget time.Duration) (float64, time.Duration) {
		p := &ph[0]
		if tr != nil {
			p = &ph[1]
		}
		p.from = w.snap()
		deadline := time.Now().Add(budget)
		for p.rounds == 0 || rounds < dsCheckRounds || time.Now().Before(deadline) {
			before := w.snap()
			cpu0 := processCPU()
			wall := w.round(tr)
			p.cpu += processCPU() - cpu0
			after := w.snap()
			rounds++
			p.rounds++
			p.busy += wall
			p.roundRate = append(p.roundRate, dsDevices/wall.Seconds())
			p.roundGroups = append(p.roundGroups, after.groups-before.groups)
			for _, d := range w.drivers {
				if d.j > 0 { // the device exchanged this round
					p.modeled = append(p.modeled, d.modeled.Seconds())
				}
			}
			if rounds <= dsCheckRounds {
				checkWall += wall
			}
			if rounds == dsCheckRounds {
				checkOut = w.outcome(base)
			}
		}
		for _, d := range w.drivers {
			if d.firstFull > 0 {
				p.firstFull = append(p.firstFull, float64(d.firstFull))
			}
		}
		p.to = w.snap()
		return float64(p.rounds * dsDevices), p.busy
	})
	w.net.Close()
	attempted, failed := w.exchanges.Load(), w.exchangeFails.Load()

	// The same check rounds on one DES worker: the outcome, trace hash
	// included, must not depend on the worker count.
	settleHeap()
	one, err := buildDiscovery(cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	oneBase := one.net.Counters()
	var oneWall time.Duration
	for r := 0; r < dsCheckRounds; r++ {
		oneWall += one.round(nil)
	}
	oneOut := one.outcome(oneBase)
	one.net.Close()
	rep.attempted = attempted + one.exchanges.Load()
	rep.failed = failed + one.exchangeFails.Load()

	rep.check("workers-invariant", oneOut == checkOut, "workers=%d %v; workers=1 %v", cfg.workers, checkOut, oneOut)
	if cfg.seed == defaultSeed {
		rep.check("committed-outcome", checkOut == dsExpected, "want %v", dsExpected)
	}
	p := ph[0]
	perRound := append([]int64{warmGroups}, p.roundGroups...)
	same := true
	for _, g := range perRound {
		same = same && g == perRound[0]
	}
	rep.check("rounds-agree", same && perRound[0] > 0, "groups per round %v (static world)", perRound)
	rep.digests = []digest{{kind: "outcome", vals: []uint64{checkOut.fingerprint(), oneOut.fingerprint()},
		note: fmt.Sprintf("first %d rounds at workers=%d and at workers=1", dsCheckRounds, cfg.workers)}}
	rep.note("devices=%d fanout=%d rounds=%d check_rounds_wall workers=%d %.3fs workers=1 %.3fs",
		dsDevices, dsFanout, rounds, cfg.workers, checkWall.Seconds(), oneWall.Seconds())

	rep.notePhases(plain, traced)
	rep.note("device rounds per wall second, per round: warm-up %.4g, measured %s", dsDevices/warmWall.Seconds(), fmtList(p.roundRate))
	units := float64(p.rounds * dsDevices)
	ex := float64(p.to.exchanges - p.from.exchanges)
	ads := float64(p.to.ads - p.from.ads)
	bytes := float64(p.to.net.BytesDelivered - p.from.net.BytesDelivered)
	converge := len(perRound)
	for r := 1; r < len(perRound); r++ {
		if perRound[r] == perRound[r-1] {
			converge = r
			break
		}
	}
	rep.e2e = map[string]float64{
		"setup_s":                     setup,
		"device_rounds_per_s":         units / p.cpu.Seconds(),
		"sessions_per_s":              ex / p.cpu.Seconds(),
		"failed_share":                failedShare(p.to.fails-p.from.fails, p.to.exchanges-p.from.exchanges),
		"wire_bytes_per_device_round": bytes / units,
		"wire_bytes_per_session":      ratio(bytes, ex),
		"converge_rounds":             float64(converge),
		"delivery_ratio":              ratio(ads, ex),
		"copies_per_delivered":        ratio(float64(p.to.net.MessagesDelivered-p.from.net.MessagesDelivered), ads),
		"delivery_latency_p50_rounds": median(p.firstFull),
		"session_modeled_p50_s":       median(p.modeled),
	}

	if cfg.trace {
		t := ph[1]
		tu := float64(t.rounds * dsDevices)
		l := rep.layer
		run := traced.tr.op("des.run")
		l["des.events"] = float64(t.to.events - t.from.events)
		l["des.events_per_s"] = ratio(l["des.events"], traced.busy.Seconds())
		l["des.events_per_device_round"] = ratio(l["des.events"], tu)
		l["des.run_self_s"] = run.self.Seconds()
		l["des.multicore_speedup"] = ratio(oneWall.Seconds(), checkWall.Seconds())
		nb := traced.tr.op("radio.neighbors")
		l["radio.neighbors_calls"] = float64(nb.count)
		l["radio.neighbors_s"] = nb.total.Seconds()
		l["radio.neighbors_ns_per_call"] = ratio(float64(nb.total), float64(nb.count))
		l["radio.neighbors_per_query"] = ratio(float64(t.to.neighbor-t.from.neighbor), float64(nb.count))
		ev := traced.tr.op("netsim.event_call")
		l["netsim.event_calls"] = float64(ev.count)
		l["netsim.event_call_s"] = ev.total.Seconds()
		netLayer(l, t.from.net, t.to.net)
		dg := traced.tr.op("core.discover_groups")
		l["core.discover_groups_calls"] = float64(dg.count)
		l["core.discover_groups_s"] = dg.total.Seconds()
		l["core.groups_formed"] = float64(t.to.groups - t.from.groups)
		traceLayer(l, plain, traced)
	}
	return rep, nil
}
