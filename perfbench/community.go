package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/community"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/peerhood"
	"repro/internal/scenario"
	"repro/internal/vtime"
)

// community-sessions: the Table 8 path at scale. A neighbourhood of
// PeerHood Community peers, all inside one Bluetooth cell, is built with
// scenario.Builder on the DES engine. As in the paper's Table 8
// experiment, one peer (picked by the seed) is the active user and the
// others run their daemons and servers; the user runs one session after
// another: search (Daemon.RefreshNow + Client.RefreshGroups), join
// (Manager().MembersOf — dynamic discovery already placed the user in
// the group), member list (OnlineMembers) and profile (ViewProfile). A
// seeded share of sessions is preceded by an interest edit on a
// neighbour, a write that invalidates that neighbour's entry in the
// user's delta cache beside the cache-hit reads of the other
// neighbours. Set-up is the build plus one cold warm-up session, so the
// measured sessions run against a filled cache.
const (
	csPeers = 200
	// csEditShare is an assumption, not measured traffic: neither the
	// paper nor a trace in the repository gives an edit rate, so it
	// takes the one-in-eight rate the harness's DTN sweep uses for its
	// message load. README.md records how the cache hit ratio moves
	// with it.
	csEditShare = 1.0 / 8
	csSide      = 6.0 // metres; the cell's diagonal stays inside Bluetooth range
	// csJoinLimit is the longest join that still reads as Table 8's
	// "already in the group, 0 s" at the table's one-second resolution.
	csJoinLimit = 500 * time.Millisecond
	// csSessionTimeout bounds one session's host time.
	csSessionTimeout = 2 * time.Minute
	// csDigestSessions is how many leading sessions the digests cover.
	csDigestSessions = 16
)

var csVocabulary = []string{
	"football", "ice-hockey", "progressive-rock", "classical-music", "mobile-photography",
	"trail-running", "board-games", "astronomy", "street-food", "chess", "sailing", "karaoke-nights",
}

func csMember(i int) ids.MemberID { return ids.MemberID(fmt.Sprintf("peer-%03d", i)) }

// csInterests gives every peer three distinct terms drawn from the
// vocabulary by the seed.
func csInterests(rng *rand.Rand) []string {
	perm := rng.Perm(len(csVocabulary))
	out := make([]string, 3)
	for k := range out {
		out[k] = csVocabulary[perm[k]]
	}
	return out
}

func buildCommunity(seed int64, workers int) (*scenario.Deployment, error) {
	rng := rand.New(rand.NewSource(seed))
	b := scenario.NewBuilder().WithSeed(seed).WithDES(0).WithDESWorkers(workers)
	for i := 0; i < csPeers; i++ {
		b.AddPeer(scenario.PeerSpec{
			Member:    csMember(i),
			Position:  geo.Pt(rng.Float64()*csSide, rng.Float64()*csSide),
			Interests: csInterests(rng),
		})
	}
	return b.Build()
}

// csSession is one measured Table 8 session.
type csSession struct {
	user   int
	term   string
	edited bool
	search time.Duration // modeled
	// join is the modeled time across the join, which is a local
	// lookup: the virtual clock moves across it only when the
	// integrated runner advances time under the computing goroutine.
	join    time.Duration
	modeled time.Duration // whole session, modeled
	groups  int
	members []ids.MemberID // of the searched group
	online  int
	viewed  ids.MemberID
	err     error
}

// ok reports whether the session's outputs are right: the search put
// the user in the group with no join step, the member list is
// non-empty and the profile came back. The modeled join time is not
// part of it: the integrated runner may advance the clock under the
// local lookup (see skewed), which moves virtual timestamps but not
// state.
func (s csSession) ok(self ids.MemberID) bool {
	return s.err == nil && slices.Contains(s.members, self) && len(s.members) > 1 &&
		s.online > 0 && s.viewed != ""
}

// skewed reports whether the modeled join reads above Table 8's
// "already in the group, 0 s" at the table's one-second resolution.
func (s csSession) skewed() bool { return s.join >= csJoinLimit }

// csTotals sums the deployment's client and daemon counters.
type csTotals struct {
	net    netsim.Counters
	events uint64
	client community.ClientStats
	daemon peerhood.Stats
}

func csSnap(d *scenario.Deployment) csTotals {
	t := csTotals{net: d.Net.Counters(), events: d.Sched.EventsExecuted()}
	for _, m := range d.Members() {
		p := d.MustPeer(m)
		t.client.Add(p.Client.Stats())
		s := p.Daemon.Stats()
		t.daemon.DiscoveryRounds += s.DiscoveryRounds
		t.daemon.SDPQueriesSent += s.SDPQueriesSent
	}
	return t
}

// runSession drives one user's search → join → member list → profile.
func runSession(d *scenario.Deployment, tr *tracer, rng *rand.Rand, user int, edits *int) csSession {
	ctx, cancel := context.WithTimeout(context.Background(), csSessionTimeout)
	defer cancel()
	s := csSession{user: user}
	u := d.MustPeer(csMember(s.user))
	if rng.Float64() < csEditShare {
		// A neighbour toggles an extra interest; the store's epoch moves,
		// so the user's cached summary of that neighbour goes stale.
		n := d.MustPeer(csMember((s.user + 1 + rng.Intn(csPeers-1)) % csPeers))
		term := fmt.Sprintf("edit-%d", *edits%4)
		p, err := n.Store.ActiveProfile()
		if err == nil {
			if slices.Contains(p.Interests, term) {
				err = n.Store.RemoveInterest(n.Spec.Member, term)
			} else {
				err = n.Store.AddInterest(n.Spec.Member, term)
			}
		}
		if err != nil {
			s.err = fmt.Errorf("interest edit: %w", err)
			return s
		}
		*edits++
		s.edited = true
	}
	s.term = u.Spec.Interests[0]
	sess := tr.begin(nil, "bench.session")
	defer sess.end()
	sw := vtime.NewStopwatch(d.Env.Clock(), d.Env.Scale())

	sp := tr.begin(sess, "peerhood.refresh_now")
	err := u.Daemon.RefreshNow(ctx)
	sp.end()
	if err == nil {
		sp = tr.begin(sess, "community.refresh_groups")
		_, err = u.Client.RefreshGroups(ctx)
		sp.end()
	}
	if err != nil {
		s.err = fmt.Errorf("search: %w", err)
		return s
	}
	s.search = sw.Elapsed()
	s.groups = len(u.Client.Groups())

	// The stopwatch spans what the harness's Table 8 join spans: the
	// manager and the member lookup.
	j0 := sw.Elapsed()
	mgr, err := u.Client.Manager()
	if err != nil {
		s.err = fmt.Errorf("join: %w", err)
		return s
	}
	s.members = mgr.MembersOf(s.term)
	s.join = sw.Elapsed() - j0

	sp = tr.begin(sess, "community.online_members")
	online, err := u.Client.OnlineMembers(ctx)
	sp.end()
	if err != nil {
		s.err = fmt.Errorf("member list: %w", err)
		return s
	}
	s.online = len(online)
	if s.online == 0 {
		return s
	}
	sp = tr.begin(sess, "community.view_profile")
	prof, err := u.Client.ViewProfile(ctx, online[0].Member)
	sp.end()
	if err != nil {
		s.err = fmt.Errorf("profile: %w", err)
		return s
	}
	if prof.Member == online[0].Member {
		s.viewed = prof.Member
	}
	s.modeled = sw.Elapsed()
	return s
}

// csWorld is a built deployment with its session generator.
type csWorld struct {
	d     *scenario.Deployment
	rng   *rand.Rand
	user  int
	edits int
}

// setupCommunity builds the deployment and runs one cold warm-up
// session; it is the timed set-up.
func setupCommunity(cfg config) (*csWorld, csSession, error) {
	d, err := buildCommunity(cfg.seed, cfg.workers)
	if err != nil {
		return nil, csSession{}, err
	}
	w := &csWorld{d: d, rng: rand.New(rand.NewSource(cfg.seed ^ 0x7461626c6538))} // "table8"
	w.user = w.rng.Intn(csPeers)
	return w, w.next(nil), nil
}

// next runs the next session of the seeded sequence.
func (w *csWorld) next(tr *tracer) csSession {
	return runSession(w.d, tr, w.rng, w.user, &w.edits)
}

func runCommunity(cfg config) (*report, error) {
	rep := newReport()
	var w *csWorld
	var warm csSession
	setup, setups, err := timeSetups(func() (err error) {
		w, warm, err = setupCommunity(cfg)
		return err
	}, func() { w.d.Stop() })
	if err != nil {
		return nil, err
	}
	defer w.d.Stop()
	rep.note("set-up: %d builds with a warm-up session, median %.4gs", setups, setup)
	// scenario.Build alone, for the per-layer split of set-up.
	var buildS float64
	if cfg.trace {
		var d *scenario.Deployment
		buildS, _, err = timeSetups(func() (err error) {
			d, err = buildCommunity(cfg.seed, cfg.workers)
			return err
		}, func() { d.Stop() })
		if err != nil {
			return nil, err
		}
		d.Stop()
	}

	d := w.d
	var sess [2][]csSession
	var tot [2][2]csTotals
	var cpu [2]time.Duration // process CPU time of the sessions
	plain, traced := phases(cfg, func(tr *tracer, budget time.Duration) (float64, time.Duration) {
		slot := 0
		if tr != nil {
			slot = 1
		}
		tot[slot][0] = csSnap(d)
		var busy time.Duration
		deadline := time.Now().Add(budget)
		for len(sess[slot]) == 0 || time.Now().Before(deadline) {
			start, cpu0 := time.Now(), processCPU()
			s := w.next(tr)
			busy += time.Since(start)
			cpu[slot] += processCPU() - cpu0
			sess[slot] = append(sess[slot], s)
			if s.err != nil {
				break
			}
		}
		tot[slot][1] = csSnap(d)
		return float64(len(sess[slot])), busy
	})

	var okCount int
	all := append(append([]csSession{warm}, sess[0]...), sess[1]...)
	var nonZero, skewed int
	var maxJoin time.Duration
	var firstBad string
	for k, s := range all {
		if s.join > 0 {
			nonZero++
			maxJoin = max(maxJoin, s.join)
		}
		if s.skewed() {
			skewed++
		}
		if s.ok(csMember(s.user)) {
			okCount++
		} else if firstBad == "" {
			firstBad = fmt.Sprintf("session %d (user %s, term %s): err=%v join=%v in_group=%t group_size=%d online=%d viewed=%q",
				k, csMember(s.user), s.term, s.err, s.join, slices.Contains(s.members, csMember(s.user)), len(s.members), s.online, s.viewed)
		}
	}
	// The digests cover a fixed prefix of the session sequence, so runs
	// of one seed compare equal work whatever their session counts.
	var outcome, modeled uint64
	prefix := min(csDigestSessions, len(sess[0]))
	for _, s := range sess[0][:prefix] {
		outcome = digestOf(outcome, s.user, s.term, s.edited, s.members, s.online, s.viewed)
		modeled = digestOf(modeled, s.search, s.modeled)
	}
	rep.digests = []digest{
		{kind: "outcome", vals: []uint64{outcome}, note: fmt.Sprintf("users, groups, member lists and profiles of the first %d sessions", prefix)},
		{kind: "modeled", vals: []uint64{modeled}, note: fmt.Sprintf("modeled search and session times of the first %d sessions", prefix)},
	}
	rep.check("sessions-complete", okCount == len(all),
		"%d/%d sessions (1 warm-up) found the user already in the searched group, a non-empty member list and a returned profile %s",
		okCount, len(all), firstBad)
	// A modeled join of Table 8's resolution or more is the integrated
	// runner's settle skew, a known defect of the program: it is
	// measured here and in des.settle_skewed_joins, not failed.
	rep.note("join: %d/%d sessions read a non-zero modeled join, %d of them %v or more (Table 8 would not read 0 s), at most %v (integrated-runner settle skew)",
		nonZero, len(all), skewed, csJoinLimit, maxJoin)

	p := sess[0]
	t0, t1 := tot[0][0], tot[0][1]
	var sessionModeled []float64
	for _, s := range p {
		sessionModeled = append(sessionModeled, s.modeled.Seconds())
	}
	n := float64(len(p))
	calls := float64(t1.client.CallsAttempted - t0.client.CallsAttempted)
	callFails := float64(t1.client.CallsFailed - t0.client.CallsFailed)
	bytes := float64(t1.net.BytesDelivered - t0.net.BytesDelivered)
	completed := 0.0
	for _, s := range p {
		if s.ok(csMember(s.user)) {
			completed++
		}
	}
	rep.attempted = int64(len(all)) + int64(tot[0][1].client.CallsAttempted-tot[0][0].client.CallsAttempted) +
		int64(tot[1][1].client.CallsAttempted-tot[1][0].client.CallsAttempted)
	rep.failed = int64(len(all)-okCount) + int64(tot[0][1].client.CallsFailed-tot[0][0].client.CallsFailed) +
		int64(tot[1][1].client.CallsFailed-tot[1][0].client.CallsFailed)
	rep.notePhases(plain, traced)
	rep.note("peers=%d user=%s sessions=%d edits=%d calls=%.0f bytes=%.0f", csPeers, csMember(w.user), len(all), w.edits, calls, bytes)
	// Four end-to-end metrics have no measurement of their own on this
	// workload; README.md lists them so a comparison does not count
	// them as evidence.
	rep.note("not measured here: device_rounds_per_s = sessions_per_s, wire_bytes_per_device_round = wire_bytes_per_session, converge_rounds = delivery_latency_p50_rounds = 1 (constant)")
	rep.e2e = map[string]float64{
		"setup_s":                     setup,
		"device_rounds_per_s":         n / cpu[0].Seconds(),
		"sessions_per_s":              n / cpu[0].Seconds(),
		"failed_share":                failedShare(int64(n-completed+callFails), int64(n+calls)),
		"wire_bytes_per_device_round": bytes / n,
		"wire_bytes_per_session":      bytes / n,
		"converge_rounds":             1,
		"delivery_ratio":              completed / n,
		"copies_per_delivered":        ratio(float64(t1.net.MessagesDelivered-t0.net.MessagesDelivered), completed),
		"delivery_latency_p50_rounds": 1,
		"session_modeled_p50_s":       median(sessionModeled),
	}

	if cfg.trace {
		l := rep.layer
		q := sess[1]
		a, b := tot[1][0], tot[1][1]
		var searchT []float64
		var groups int
		for _, s := range q {
			searchT = append(searchT, s.search.Seconds())
			groups += s.groups
		}
		l["des.events"] = float64(b.events - a.events)
		l["des.events_per_s"] = ratio(l["des.events"], traced.busy.Seconds())
		l["des.events_per_device_round"] = ratio(l["des.events"], traced.units)
		netLayer(l, a.net, b.net)
		l["core.groups_formed"] = float64(groups)
		l["peerhood.refresh_now_p50_ms"] = median(durationsMS(traced.tr.op("peerhood.refresh_now").samples))
		l["peerhood.sdp_queries_sent"] = float64(b.daemon.SDPQueriesSent - a.daemon.SDPQueriesSent)
		l["peerhood.discovery_rounds"] = float64(b.daemon.DiscoveryRounds - a.daemon.DiscoveryRounds)
		l["community.refresh_groups_p50_ms"] = median(durationsMS(traced.tr.op("community.refresh_groups").samples))
		l["community.online_members_p50_ms"] = median(durationsMS(traced.tr.op("community.online_members").samples))
		l["community.view_profile_p50_ms"] = median(durationsMS(traced.tr.op("community.view_profile").samples))
		l["community.search_modeled_p50_s"] = median(searchT)
		c := b.client
		c0 := a.client
		l["community.calls_attempted"] = float64(c.CallsAttempted - c0.CallsAttempted)
		l["community.calls_failed"] = float64(c.CallsFailed - c0.CallsFailed)
		l["community.cache_hit_ratio"] = ratio(float64(c.CacheHits-c0.CacheHits), l["community.calls_attempted"])
		l["community.not_modified"] = float64(c.NotModified - c0.NotModified)
		l["community.singleflight_hits"] = float64(c.SingleflightHits - c0.SingleflightHits)
		l["community.fanouts_degraded"] = float64(c.FanoutsDegraded - c0.FanoutsDegraded)
		l["scenario.build_s"] = buildS
		l["des.settle_skewed_joins"] = float64(skewed)
		traceLayer(l, plain, traced)
	}
	return rep, nil
}
