package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/gossip"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// gossip-converge: epidemic dissemination over proximity clusters of 16
// on the DES engine in integrated mode (blocking gossip.Node.Round calls
// over the event transport). Each episode builds a fresh world, runs
// rounds until every device holds every neighbour's record, then a
// steady tail, and tears the world down. It mirrors the gossip mode of
// the harness's gossip scaling sweep. Episodes repeat the same seed, and
// their outcome digests are compared.
const (
	gcDevices   = 2000
	gcCluster   = 16
	gcShards    = 8
	gcWave      = 1024
	gcMaxRounds = 32
	gcTail      = 6 // settle plus measured steady rounds after convergence
)

type gcWorld struct {
	sched *des.Scheduler
	env   *radio.Environment
	net   *netsim.Network
	devs  []ids.DeviceID
	neigh [][]ids.DeviceID
	nodes []*gossip.Node
}

func buildGossip(seed int64, workers int, tr *tracer) (*gcWorld, error) {
	seed += gcDevices
	sched := des.NewScheduler(seed, gcShards)
	sched.SetWorkers(workers)
	env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-6)), radio.WithClock(sched.Clock()))
	w := &gcWorld{sched: sched, env: env}
	// Clusters of 16 inside a 4 m box, cluster origins 40 m apart: every
	// member hears its whole cluster and nothing else.
	clusters := (gcDevices + gcCluster - 1) / gcCluster
	cols := int(math.Ceil(math.Sqrt(float64(clusters))))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < gcDevices; i++ {
		dev := ids.DeviceIDf("dev-%05d", i)
		c := i / gcCluster
		at := geo.Pt(float64(c%cols)*40+rng.Float64()*4, float64(c/cols)*40+rng.Float64()*4)
		if err := env.Add(dev, mobility.Static{At: at}, radio.Bluetooth); err != nil {
			return nil, err
		}
		w.devs = append(w.devs, dev)
	}
	w.net = netsim.NewDES(env, seed, sched)
	sched.Start()
	// The world is static: pin every neighbourhood to the epoch-0
	// snapshot once.
	for _, dev := range w.devs {
		sp := tr.begin(nil, "radio.neighbors")
		w.neigh = append(w.neigh, env.NeighborsAt(dev, radio.Bluetooth, 0))
		sp.end()
	}
	for i, dev := range w.devs {
		i := i
		node, err := gossip.NewNode(gossip.Params{
			Device: dev,
			Member: ids.MemberID(dev),
			Self: func() gossip.Record {
				return gossip.Record{Member: ids.MemberID(w.devs[i]), Device: w.devs[i], Epoch: 1, Interests: dsInterests(i)}
			},
			Neighbors: func() []ids.DeviceID { return w.neigh[i] },
			Net:       w.net,
			Seed:      seed,
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

func (w *gcWorld) close() {
	for _, n := range w.nodes {
		n.Stop()
	}
	w.net.Close()
	w.sched.Stop()
}

// sweepWave runs fn(i) for i in [0, n) on at most wave goroutines and
// returns once every call has.
func sweepWave(n, wave int, fn func(i int)) {
	if wave > n {
		wave = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(wave)
	for k := 0; k < wave; k++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// gcEpisode is one built-converged-torn-down world.
type gcEpisode struct {
	sweepWall time.Duration
	sweepCPU  time.Duration // process CPU time of the sweeps
	rounds    int
	converged int
	pairs     int
	covered   int
	learnAt   []float64 // per (device, neighbour) pair: round it learned the record
	modeled   []float64 // per Round call that exchanged, modeled seconds
	net       netsim.Counters
	events    uint64
	stats     gossip.Stats
}

func (e gcEpisode) fingerprint() uint64 {
	return digestOf(e.converged, e.rounds, e.net.BytesDelivered, e.net.MessagesDelivered, e.stats.RecordsLearned)
}

// exchanges counts the gossip exchanges a node started: rumor pushes,
// failed or not, and anti-entropy runs.
func exchanges(s gossip.Stats) uint64 { return s.PushesSent + s.PushErrors + s.AERuns }

func runGossipEpisode(cfg config, tr *tracer) (gcEpisode, error) {
	var ep gcEpisode
	w, err := buildGossip(cfg.seed, cfg.workers, tr)
	if err != nil {
		return ep, err
	}
	defer w.close()

	type pair struct{ i, j int }
	var pending []pair
	for i := range w.devs {
		for j := range w.neigh[i] {
			pending = append(pending, pair{i, j})
		}
	}
	ep.pairs = len(pending)
	ctx := context.Background()
	modeledNS := make([]int64, len(w.nodes))
	scale := w.env.Scale()
	sweep := func() {
		t0, cpu0 := time.Now(), processCPU()
		sweepWave(len(w.nodes), gcWave, func(i int) {
			sp := tr.begin(nil, "gossip.round")
			ex, v0 := exchanges(w.nodes[i].Stats()), w.sched.NowNS()
			w.nodes[i].Round(ctx)
			modeledNS[i] = w.sched.NowNS() - v0
			sp.end()
			if exchanges(w.nodes[i].Stats()) == ex {
				modeledNS[i] = -1 // no exchange this round
			}
		})
		ep.sweepWall += time.Since(t0)
		ep.sweepCPU += processCPU() - cpu0
		ep.rounds++
		for _, ns := range modeledNS {
			if ns < 0 {
				continue
			}
			ep.modeled = append(ep.modeled, scale.ToModeled(time.Duration(ns)).Seconds())
		}
	}
	events0 := w.sched.EventsExecuted()
	for ep.converged == 0 && ep.rounds < gcMaxRounds {
		sweep()
		remain := pending[:0]
		for _, p := range pending {
			if w.nodes[p.i].HasRecord(w.neigh[p.i][p.j], 1) {
				ep.learnAt = append(ep.learnAt, float64(ep.rounds))
				continue
			}
			remain = append(remain, p)
		}
		pending = remain
		if len(pending) == 0 {
			ep.converged = ep.rounds
		}
	}
	for k := 0; ep.converged > 0 && k < gcTail; k++ {
		sweep()
	}
	ep.events = w.sched.EventsExecuted() - events0
	ep.net = w.net.Counters()
	for i, node := range w.nodes {
		ep.stats.Add(node.Stats())
		for _, peer := range w.neigh[i] {
			if node.HasRecord(peer, 1) {
				ep.covered++
			}
		}
	}
	return ep, nil
}

func runGossip(cfg config) (*report, error) {
	rep := newReport()
	var w *gcWorld
	setup, builds, err := timeSetups(func() (err error) {
		w, err = buildGossip(cfg.seed, cfg.workers, nil)
		return err
	}, func() { w.close() })
	if err != nil {
		return nil, err
	}
	w.close()
	rep.note("set-up: %d world builds, median %.4gs", builds, setup)
	var eps [2][]gcEpisode
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
			ep, err := runGossipEpisode(cfg, tr)
			if err != nil {
				return err
			}
			eps[slot] = append(eps[slot], ep)
			units += float64(ep.rounds * gcDevices)
			busy += ep.sweepWall
			return nil
		})
		return units, busy
	})
	if runErr != nil {
		return nil, runErr
	}

	outcome := digest{kind: "outcome", note: "one per episode; every episode replays the same seed"}
	all := append(append([]gcEpisode(nil), eps[0]...), eps[1]...)
	for k, ep := range all {
		rep.check(fmt.Sprintf("full-coverage[%d]", k), ep.converged > 0 && ep.covered == ep.pairs,
			"converged at round %d, %d/%d (device, neighbour) records held after %d rounds", ep.converged, ep.covered, ep.pairs, ep.rounds)
		outcome.vals = append(outcome.vals, ep.fingerprint())
		ex := exchanges(ep.stats)
		rep.attempted += int64(ex)
		rep.failed += int64(ep.stats.PushErrors + ep.stats.AEErrors)
		rep.note("episode %d: converged=%d rounds=%d bytes=%d messages=%d exchanges=%d learned=%d busy=%.3fs cpu=%.3fs",
			k, ep.converged, ep.rounds, ep.net.BytesDelivered, ep.net.MessagesDelivered, ex, ep.stats.RecordsLearned,
			ep.sweepWall.Seconds(), ep.sweepCPU.Seconds())
	}
	rep.digests = []digest{outcome}
	rep.notePhases(plain, traced)

	var rate, exRate, converge, learn, modeled, bytesPerRound, bytesPerExchange, copies []float64
	var exchanged, failed, pairs, covered float64
	for _, ep := range eps[0] {
		u := float64(ep.rounds * gcDevices)
		ex := float64(exchanges(ep.stats))
		rate = append(rate, u/ep.sweepCPU.Seconds())
		exRate = append(exRate, ex/ep.sweepCPU.Seconds())
		converge = append(converge, float64(ep.converged))
		learn = append(learn, ep.learnAt...)
		modeled = append(modeled, ep.modeled...)
		bytesPerRound = append(bytesPerRound, float64(ep.net.BytesDelivered)/u)
		bytesPerExchange = append(bytesPerExchange, ratio(float64(ep.net.BytesDelivered), ex))
		copies = append(copies, ratio(float64(ep.stats.RumorRecordsSent+ep.stats.AERecordsPushed+ep.stats.AERecordsPulled),
			float64(ep.stats.RecordsLearned)))
		exchanged += ex
		failed += float64(ep.stats.PushErrors + ep.stats.AEErrors)
		pairs += float64(ep.pairs)
		covered += float64(ep.covered)
	}
	rep.e2e = map[string]float64{
		"setup_s":                     setup,
		"device_rounds_per_s":         median(rate),
		"sessions_per_s":              median(exRate),
		"failed_share":                failedShare(int64(failed), int64(exchanged)),
		"wire_bytes_per_device_round": median(bytesPerRound),
		"wire_bytes_per_session":      median(bytesPerExchange),
		"converge_rounds":             mean(converge),
		"delivery_ratio":              ratio(covered, pairs),
		"copies_per_delivered":        median(copies),
		"delivery_latency_p50_rounds": median(learn),
		"session_modeled_p50_s":       median(modeled),
	}

	if cfg.trace {
		l := rep.layer
		var to netsim.Counters
		var stats gossip.Stats
		var events uint64
		var pairs int
		for _, ep := range eps[1] {
			pairs += ep.pairs
			addCounters(&to, ep.net)
			stats.Add(ep.stats)
			events += ep.events
		}
		l["des.events"] = float64(events)
		l["des.events_per_s"] = ratio(float64(events), traced.busy.Seconds())
		l["des.events_per_device_round"] = ratio(float64(events), traced.units)
		nb := traced.tr.op("radio.neighbors")
		l["radio.neighbors_calls"] = float64(nb.count)
		l["radio.neighbors_s"] = nb.total.Seconds()
		l["radio.neighbors_ns_per_call"] = ratio(float64(nb.total), float64(nb.count))
		l["radio.neighbors_per_query"] = ratio(float64(pairs), float64(nb.count))
		netLayer(l, netsim.Counters{}, to)
		rd := traced.tr.op("gossip.round")
		ms := durationsMS(rd.samples)
		l["gossip.round_calls"] = float64(rd.count)
		l["gossip.round_p50_ms"] = quantile(ms, 0.5)
		l["gossip.round_p99_ms"] = quantile(ms, 0.99)
		l["gossip.push_skip_ratio"] = ratio(float64(stats.PushesSkipped), float64(stats.PushesSent+stats.PushesSkipped))
		l["gossip.rumors_died"] = float64(stats.RumorsDied)
		l["gossip.ae_runs"] = float64(stats.AERuns)
		l["gossip.exchange_errors"] = float64(stats.PushErrors + stats.AEErrors)
		l["gossip.frames_rejected"] = float64(stats.FramesRejected)
		traceLayer(l, plain, traced)
	}
	return rep, nil
}
