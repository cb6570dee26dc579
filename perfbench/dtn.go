package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/dtn"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// dtn-courier: store-carry-forward delivery in a bus-line world on the
// DES engine, with the social (group-encounter) relay strategy of the
// GROUPS-NET setting. Residents, 12 a stop, sit at stops 60 m apart, far outside
// Bluetooth range; one bus per three stops shuttles the line and is the
// only path between stops. Buses move between contact rounds, so every
// round queries a fresh radio view. Each episode builds the world, runs
// one warm-up tour, originates cross-stop messages and runs contact
// rounds until all are delivered or the budget ends. It mirrors the bus
// world of the harness's DTN scaling sweep.
const (
	dcDevices      = 400
	dcResidents    = 12            // per stop
	dcCourierEvery = 3             // stops per bus
	dcDwell        = 2             // rounds a bus stays at a stop
	dcRounds       = 96            // contact-round budget after the warm-up
	dcMessages     = dcDevices / 8 // the harness DTN sweep's default load
	dcShards       = 8
	dcWave         = 1024
)

type dcWorld struct {
	sched     *des.Scheduler
	env       *radio.Environment
	net       *netsim.Network
	devs      []ids.DeviceID
	community []int // home stop per device, -1 for buses
	byDevice  map[ids.DeviceID]int
	stops     []geo.Point
	couriers  []int
	phase     []int
	step      []int
	nodes     []*dtn.Node

	tr         *tracer
	neighFound atomic.Int64
}

func buildDTN(seed int64, workers int) (*dcWorld, error) {
	seed += dcDevices
	sched := des.NewScheduler(seed, dcShards)
	sched.SetWorkers(workers)
	env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-6)), radio.WithClock(sched.Clock()))
	w := &dcWorld{sched: sched, env: env, byDevice: make(map[ids.DeviceID]int, dcDevices)}
	perBlock := dcResidents*dcCourierEvery + 1
	stops := (dcDevices + perBlock - 1) / perBlock * dcCourierEvery
	for s := 0; s < stops; s++ {
		w.stops = append(w.stops, geo.Pt(float64(s)*60, 0))
	}
	rng := rand.New(rand.NewSource(seed))
	add := func(at geo.Point, community int) error {
		dev := ids.DeviceIDf("dev-%05d", len(w.devs))
		if err := env.Add(dev, mobility.Static{At: at}, radio.Bluetooth); err != nil {
			return err
		}
		w.byDevice[dev] = len(w.devs)
		w.devs = append(w.devs, dev)
		w.community = append(w.community, community)
		return nil
	}
	for s := 0; s < stops && len(w.devs) < dcDevices; s++ {
		for r := 0; r < dcResidents && len(w.devs) < dcDevices; r++ {
			if err := add(geo.Pt(w.stops[s].X+rng.Float64()*4, w.stops[s].Y+rng.Float64()*4), s); err != nil {
				return nil, err
			}
		}
		if (s+1)%dcCourierEvery == 0 && len(w.devs) < dcDevices {
			w.couriers = append(w.couriers, len(w.devs))
			w.phase = append(w.phase, s)
			w.step = append(w.step, 1+len(w.couriers)%2)
			if err := add(w.stops[s], -1); err != nil {
				return nil, err
			}
		}
	}
	w.net = netsim.NewDES(env, seed, sched)
	sched.Start()
	for i, dev := range w.devs {
		i, dev := i, dev
		node, err := dtn.NewNode(dtn.Params{
			Device:    dev,
			Neighbors: func() []ids.DeviceID { return w.neighbors(dev) },
			Groups:    func() []core.Group { return w.groupsOf(i) },
			Net:       w.net,
			Seed:      seed,
			// A contact round must cover the whole stop: residents
			// plus any parked buses.
			Config: dtn.Config{Strategy: dtn.Social, Fanout: dcResidents + 8},
		})
		if err == nil {
			err = node.Start()
		}
		if err != nil {
			w.close()
			return nil, err
		}
		w.nodes = append(w.nodes, node)
	}
	return w, nil
}

func (w *dcWorld) close() {
	for _, n := range w.nodes {
		n.Stop()
	}
	w.net.Close()
	w.sched.Stop()
}

// neighbors is the radio query every contact round and group view
// makes; buses move, so it is answered from a fresh snapshot each
// epoch.
func (w *dcWorld) neighbors(dev ids.DeviceID) []ids.DeviceID {
	sp := w.tr.begin(nil, "radio.neighbors")
	out := w.env.Neighbors(dev, radio.Bluetooth)
	sp.end()
	w.neighFound.Add(int64(len(out)))
	return out
}

// groupsOf is device i's group view: its radio neighbours bucketed by
// home stop. A bus parked at a stop sees that stop's group, which is
// how the social strategy learns which destinations the bus meets.
func (w *dcWorld) groupsOf(i int) []core.Group {
	buckets := make(map[int][]core.Member)
	add := func(idx int) {
		if c := w.community[idx]; c >= 0 {
			buckets[c] = append(buckets[c], core.Member{Device: w.devs[idx], ID: ids.MemberID(w.devs[idx])})
		}
	}
	add(i)
	for _, nd := range w.neighbors(w.devs[i]) {
		if idx, ok := w.byDevice[nd]; ok {
			add(idx)
		}
	}
	comms := make([]int, 0, len(buckets))
	for c := range buckets {
		comms = append(comms, c)
	}
	sort.Ints(comms)
	out := make([]core.Group, 0, len(comms))
	for _, c := range comms {
		out = append(out, core.Group{Interest: fmt.Sprintf("community-%03d", c), Members: buckets[c]})
	}
	return out
}

// tour moves every bus to its stop for the round.
func (w *dcWorld) tour(round int) error {
	epoch := round / dcDwell
	for k, idx := range w.couriers {
		at := w.stops[(w.phase[k]+epoch*w.step[k])%len(w.stops)]
		if err := w.env.SetModel(w.devs[idx], mobility.Static{At: geo.Pt(at.X+1, at.Y+1)}); err != nil {
			return err
		}
	}
	return nil
}

// dcEpisode is one built-delivered-torn-down world.
type dcEpisode struct {
	rounds    int
	busy      time.Duration
	cpu       time.Duration // process CPU time of the contact rounds
	sent      int
	delivered int
	latency   []float64 // per delivered message, contact rounds
	modeled   []float64 // per Round call that made contact, modeled seconds
	neighbors int64
	net       netsim.Counters
	events    uint64
	stats     dtn.Stats
}

func (e dcEpisode) fingerprint() uint64 {
	return digestOf(e.rounds, e.sent, e.delivered, e.latency, e.stats.CopiesSent, e.stats.OffersSent, e.stats.Duplicates, e.net.BytesDelivered)
}

func runDTNEpisode(cfg config, tr *tracer) (dcEpisode, error) {
	var ep dcEpisode
	w, err := buildDTN(cfg.seed, cfg.workers)
	if err != nil {
		return ep, err
	}
	defer w.close()
	w.tr = tr

	ctx := context.Background()
	modeledNS := make([]int64, len(w.nodes))
	scale := w.env.Scale()
	round := 0
	contact := func() error {
		t0, cpu0 := time.Now(), processCPU()
		if err := w.tour(round); err != nil {
			return err
		}
		sweepWave(len(w.nodes), dcWave, func(i int) {
			sp := tr.begin(nil, "dtn.round")
			offers, v0 := w.nodes[i].Stats().OffersSent, w.sched.NowNS()
			w.nodes[i].Round(ctx)
			modeledNS[i] = w.sched.NowNS() - v0
			sp.end()
			if w.nodes[i].Stats().OffersSent == offers {
				modeledNS[i] = -1 // no contact this round
			}
		})
		wall := time.Since(t0)
		ep.busy += wall
		ep.cpu += processCPU() - cpu0
		for _, ns := range modeledNS {
			if ns < 0 {
				continue
			}
			ep.modeled = append(ep.modeled, scale.ToModeled(time.Duration(ns)).Seconds())
		}
		round++
		return nil
	}
	events0 := w.sched.EventsExecuted()
	// Warm-up: one full tour, so every bus has parked at every stop and
	// the social strategy's encounter memories cover the line.
	warm := len(w.stops)*dcDwell + 2
	for round < warm {
		if err := contact(); err != nil {
			return ep, err
		}
	}
	// Traffic: cross-stop messages between residents. The stop pairs are
	// stratified — every stop sends, over every distance along the
	// line — so each seed loads the line alike; the seed picks which
	// residents send and receive.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x627573))
	byStop := make([][]int, len(w.stops))
	for i, c := range w.community {
		if c >= 0 {
			byStop[c] = append(byStop[c], i)
		}
	}
	type sent struct {
		id      string
		dst, at int
	}
	var pending []sent
	for k := 0; k < dcMessages; k++ {
		from := k % len(w.stops)
		to := (from + 1 + (k/len(w.stops)+k)%(len(w.stops)-1)) % len(w.stops)
		src := byStop[from][rng.Intn(len(byStop[from]))]
		dst := byStop[to][rng.Intn(len(byStop[to]))]
		id, err := w.nodes[src].SendTTL(w.devs[dst], []byte(fmt.Sprintf("bundle-%04d", k)), warm+dcRounds+8)
		if err != nil {
			return ep, err
		}
		pending = append(pending, sent{id: id, dst: dst, at: round})
	}
	ep.sent = len(pending)
	// The whole budget always runs, so every episode does the same
	// number of contact rounds whatever the deliveries.
	for budget := 0; budget < dcRounds; budget++ {
		if err := contact(); err != nil {
			return ep, err
		}
		remain := pending[:0]
		for _, s := range pending {
			if w.nodes[s.dst].Consumed(s.id) {
				ep.delivered++
				ep.latency = append(ep.latency, float64(round-s.at))
				continue
			}
			remain = append(remain, s)
		}
		pending = remain
	}
	ep.rounds = round
	ep.events = w.sched.EventsExecuted() - events0
	ep.net = w.net.Counters()
	ep.neighbors = w.neighFound.Load()
	for _, node := range w.nodes {
		ep.stats.Add(node.Stats())
	}
	return ep, nil
}

func runDTN(cfg config) (*report, error) {
	rep := newReport()
	var w *dcWorld
	setup, builds, err := timeSetups(func() (err error) {
		w, err = buildDTN(cfg.seed, cfg.workers)
		return err
	}, func() { w.close() })
	if err != nil {
		return nil, err
	}
	w.close()
	rep.note("set-up: %d world builds, median %.4gs", builds, setup)
	var eps [2][]dcEpisode
	var runErr error
	plain, traced := phases(cfg, func(tr *tracer, budget time.Duration) (float64, time.Duration) {
		slot := 0
		if tr != nil {
			slot = 1
		}
		var units float64
		var busy time.Duration
		runErr = episodes(budget, func() error {
			settleHeap()
			ep, err := runDTNEpisode(cfg, tr)
			if err != nil {
				return err
			}
			eps[slot] = append(eps[slot], ep)
			units += float64(ep.rounds * dcDevices)
			busy += ep.busy
			return nil
		})
		return units, busy
	})
	if runErr != nil {
		return nil, runErr
	}

	outcome := digest{kind: "outcome", note: "one per episode; every episode replays the same seed"}
	all := append(append([]dcEpisode(nil), eps[0]...), eps[1]...)
	for k, ep := range all {
		s := ep.stats
		rep.check(fmt.Sprintf("custody-balanced[%d]", k), s.CustodyBalanced(),
			"accepted=%d delivered=%d expired=%d evicted=%d transferred=%d purged=%d crash_dropped=%d buffered=%d",
			s.Accepted, s.Delivered, s.Expired, s.Evicted, s.Transferred, s.Purged, s.CrashDropped, s.Buffered)
		rep.check(fmt.Sprintf("delivered[%d]", k), ep.delivered > 0, "%d/%d messages delivered", ep.delivered, ep.sent)
		outcome.vals = append(outcome.vals, ep.fingerprint())
		rep.attempted += int64(s.OffersSent)
		rep.failed += int64(s.ExchangeErrors)
		rep.note("episode %d: rounds=%d sent=%d delivered=%d copies=%d offers=%d bytes=%d busy=%.3fs cpu=%.3fs",
			k, ep.rounds, ep.sent, ep.delivered, s.CopiesSent, s.OffersSent, ep.net.BytesDelivered, ep.busy.Seconds(), ep.cpu.Seconds())
	}
	rep.digests = []digest{outcome}
	rep.notePhases(plain, traced)

	var rate, exRate, settled, latency, modeled, bytesPerRound, bytesPerContact, deliveredShare, copies []float64
	var offers, failed int64
	for _, ep := range eps[0] {
		units := float64(ep.rounds * dcDevices)
		rate = append(rate, units/ep.cpu.Seconds())
		exRate = append(exRate, float64(ep.stats.OffersSent)/ep.cpu.Seconds())
		// Converged: the round by which 90% of the episode's deliveries
		// had arrived.
		settled = append(settled, quantile(append([]float64(nil), ep.latency...), 0.9))
		latency = append(latency, ep.latency...)
		modeled = append(modeled, ep.modeled...)
		bytesPerRound = append(bytesPerRound, float64(ep.net.BytesDelivered)/units)
		bytesPerContact = append(bytesPerContact, ratio(float64(ep.net.BytesDelivered), float64(ep.stats.OffersSent)))
		deliveredShare = append(deliveredShare, ratio(float64(ep.delivered), float64(ep.sent)))
		copies = append(copies, ratio(float64(ep.stats.CopiesSent), float64(ep.delivered)))
		offers += int64(ep.stats.OffersSent)
		failed += int64(ep.stats.ExchangeErrors)
	}
	rep.e2e = map[string]float64{
		"setup_s":                     setup,
		"device_rounds_per_s":         median(rate),
		"sessions_per_s":              median(exRate),
		"failed_share":                failedShare(failed, offers),
		"wire_bytes_per_device_round": median(bytesPerRound),
		"wire_bytes_per_session":      median(bytesPerContact),
		"converge_rounds":             median(settled),
		"delivery_ratio":              median(deliveredShare),
		"copies_per_delivered":        median(copies),
		"delivery_latency_p50_rounds": median(latency),
		"session_modeled_p50_s":       median(modeled),
	}

	if cfg.trace {
		l := rep.layer
		var to netsim.Counters
		var stats dtn.Stats
		var events uint64
		var neighbors int64
		for _, ep := range eps[1] {
			addCounters(&to, ep.net)
			stats.Add(ep.stats)
			events += ep.events
			neighbors += ep.neighbors
		}
		l["des.events"] = float64(events)
		l["des.events_per_s"] = ratio(float64(events), traced.busy.Seconds())
		l["des.events_per_device_round"] = ratio(float64(events), traced.units)
		nb := traced.tr.op("radio.neighbors")
		l["radio.neighbors_calls"] = float64(nb.count)
		l["radio.neighbors_s"] = nb.total.Seconds()
		l["radio.neighbors_ns_per_call"] = ratio(float64(nb.total), float64(nb.count))
		l["radio.neighbors_per_query"] = ratio(float64(neighbors), float64(nb.count))
		netLayer(l, netsim.Counters{}, to)
		rd := traced.tr.op("dtn.round")
		l["dtn.round_calls"] = float64(rd.count)
		l["dtn.round_p50_ms"] = quantile(durationsMS(rd.samples), 0.5)
		l["dtn.offers_sent"] = float64(stats.OffersSent)
		l["dtn.copies_sent"] = float64(stats.CopiesSent)
		l["dtn.duplicate_ratio"] = ratio(float64(stats.Duplicates), float64(stats.Duplicates+stats.CopiesSent))
		l["dtn.exchange_errors"] = float64(stats.ExchangeErrors)
		l["dtn.frames_rejected"] = float64(stats.FramesRejected)
		traceLayer(l, plain, traced)
	}
	return rep, nil
}
