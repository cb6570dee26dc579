package harness

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/vtime"
)

// This file is the engine-scaling experiment: the same discovery sweep
// — every device runs an inquiry window, queries its neighborhood, and
// exchanges interest advertisements with a capped fan-out, then forms
// its groups — on the goroutine transport engine and on the
// discrete-event engine. On the goroutine engine every modeled duration
// is a (scaled) real timer wait, so wall-clock grows with device count
// times timer granularity; on the event engine the workload drivers ARE
// events (esDriver): each device's round is a self-rescheduling cascade
// of DialEvent/SendEvent/RecvEvent/CloseEvent continuations, so the
// sweep spawns O(shards) goroutines instead of O(devices), shared
// deadlines collapse into windows, and the scheduler's worker pool
// executes the per-window shard batches on every core — which is what
// pushes the sweep from the goroutine engine's ~2k ceiling to 100k
// devices. The pooled goroutine drivers survive behind
// DriverGoroutines as the differential oracle at n ≤ 200.

// EngineScalePoint is one measured sweep at one world size.
type EngineScalePoint struct {
	Devices int
	// Engine is "goroutine" (goroutine transport engine), "des" (event
	// drivers on the discrete-event engine) or "des-goro" (the oracle:
	// pooled goroutine drivers on the discrete-event engine).
	Engine string
	// Workers is the event engine's executor count (0 on the goroutine
	// engine).
	Workers int
	// Wall is the real wall-clock cost of the whole sweep.
	Wall time.Duration
	// Virtual is how much virtual (clock) time the sweep consumed.
	Virtual time.Duration
	// Events and EventsPerSec are the event engine's executed-event
	// count and throughput (zero on the goroutine engine).
	Events       uint64
	EventsPerSec float64
	// NsPerDeviceRound is Wall divided by device-rounds — the figure
	// whose growth (or flatness) is the scaling claim.
	NsPerDeviceRound float64
	// Groups totals the groups every device formed across rounds, and
	// Delivered the transport's delivered messages — evidence the sweep
	// actually exchanged interests rather than timing empty air.
	Groups    int
	Delivered uint64
	// TraceHash is the scheduler's canonical event-trace fold after the
	// sweep (zero on the goroutine engine). For pure event drivers it
	// must be invariant across shard and worker counts — the harness
	// determinism tests pin exactly that.
	TraceHash uint64
}

// EngineScaleConfig parameterizes the sweep.
type EngineScaleConfig struct {
	// Scale is the modeled-to-real latency scale (default 1e-3).
	Scale vtime.Scale
	// Seed drives placement and interests.
	Seed int64
	// Rounds is how many discovery rounds each device runs (default 2).
	Rounds int
	// Fanout caps how many neighbors each device exchanges interests
	// with per round (default 3).
	Fanout int
	// Engine selects the transport engine; on the discrete-event
	// engine the workload drivers are event-native.
	Engine scenario.Engine
	// DriverGoroutines runs the pooled goroutine drivers on the DES
	// engine (integrated mode) instead of event drivers — the
	// differential oracle the event cascade is held to at small n.
	DriverGoroutines bool
}

func (c EngineScaleConfig) withDefaults() EngineScaleConfig {
	if c.Scale.Factor() == 1 || c.Scale.Factor() == 0 {
		c.Scale = vtime.NewScale(1e-3)
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	return c
}

// engineScaleWave bounds concurrent device drivers on the
// goroutine-driver paths only — the plain goroutine engine and the
// DriverGoroutines oracle — where a sweep must not need 50k
// simultaneous goroutines. The DES path schedules drivers as events.
const engineScaleWave = 2048

// engineScalePool is the interest vocabulary; small enough that groups
// form, large enough that not every pair shares one.
var engineScalePool = []string{"football", "biking", "music", "chess", "films", "news", "games", "food"}

func engineScaleInterests(i int) []string {
	out := []string{engineScalePool[i%len(engineScalePool)]}
	if second := engineScalePool[(i*5+3)%len(engineScalePool)]; second != out[0] {
		out = append(out, second)
	}
	return out
}

func engineScaleAd(dev ids.DeviceID, interests []string) []byte {
	return []byte("ad|" + string(dev) + "|" + strings.Join(interests, ","))
}

func engineScaleParse(payload []byte) ([]string, bool) {
	parts := strings.Split(string(payload), "|")
	if len(parts) != 3 || parts[0] != "ad" {
		return nil, false
	}
	return strings.Split(parts[2], ","), true
}

// RunEngineScale measures the discovery sweep at each world size.
func RunEngineScale(cfg EngineScaleConfig, deviceCounts []int) ([]EngineScalePoint, error) {
	cfg = cfg.withDefaults()
	out := make([]EngineScalePoint, 0, len(deviceCounts))
	for _, n := range deviceCounts {
		if n < 1 {
			return nil, fmt.Errorf("harness: engine scale: need at least one device, got %d", n)
		}
		p, err := runEngineScalePoint(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("harness: engine scale point %d: %w", n, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func runEngineScalePoint(cfg EngineScaleConfig, n int) (EngineScalePoint, error) {
	ctx := context.Background()
	seed := cfg.Seed + int64(n)
	w := scenario.NewWorld(cfg.Engine, seed, radio.WithScale(cfg.Scale))
	defer w.Close()
	env, net, sched := w.Env, w.Net, w.Sched
	devs, err := placeUniform(env, n, seed)
	if err != nil {
		return EngineScalePoint{}, err
	}
	eventDrivers := cfg.Engine.DES && !cfg.DriverGoroutines
	if !eventDrivers {
		// Goroutine drivers block on the scheduler's clock, so the
		// background runner must advance time; event drivers drain
		// synchronously with Run and never need it.
		w.Start()
	}

	// Every device serves its interest advertisement on port "esd". On
	// the goroutine-driver paths that is one serve loop per device plus
	// one short-lived handler goroutine per exchange; with event drivers
	// the listener's AcceptEvent handler arms a RecvEvent/SendEvent
	// serve chain instead, and no serving goroutine ever exists.
	for i, dev := range devs {
		l, err := net.Listen(dev, "esd")
		if err != nil {
			return EngineScalePoint{}, err
		}
		ad := engineScaleAd(dev, engineScaleInterests(i))
		if eventDrivers {
			srv := &esServer{ad: ad}
			l.AcceptEvent(srv.accept)
			continue
		}
		// The loop ends when w.Close closes the network's listeners.
		l.Serve(ctx, func(ctx context.Context, c *netsim.Conn) { serveReplies(ctx, c, ad) })
	}

	clock := env.Clock()
	inquiry := env.Scale().ToReal(env.PHY(radio.Bluetooth).InquiryDuration)
	var groupsTotal atomic.Int64
	virtStart := clock.Now()
	sw := vtime.NewStopwatch(vtime.Real(), vtime.Identity())

	if eventDrivers {
		// Drivers as events: seed every device's first round (device
		// order, so the pre-run sequence draws replay), then drain the
		// cascade on the calling goroutine — the worker pool inside Run
		// is the only concurrency.
		for i := range devs {
			d := &esDriver{
				cfg: cfg, env: env, net: net,
				dev: devs[i], home: netsim.DeviceHome(devs[i]),
				inquiry: inquiry, groupsTotal: &groupsTotal,
				self: core.Member{Device: devs[i], ID: ids.MemberID(devs[i]), Interests: engineScaleInterests(i)},
			}
			d.ad = engineScaleAd(d.dev, d.self.Interests)
			sched.At(inquiry, d.home, d.startRound)
		}
		sched.Run()
	} else {
		for round := 0; round < cfg.Rounds; round++ {
			sweepPool(n, engineScaleWave, func(i int) {
				driveEngineScaleDevice(ctx, cfg, env, net, clock, inquiry, devs, i, &groupsTotal)
			})
		}
	}

	wall := sw.Elapsed()
	point := EngineScalePoint{
		Devices:          n,
		Engine:           cfg.Engine.String(),
		Wall:             wall,
		Virtual:          clock.Now().Sub(virtStart),
		NsPerDeviceRound: float64(wall.Nanoseconds()) / float64(n*cfg.Rounds),
		Groups:           int(groupsTotal.Load()),
		Delivered:        net.Counters().MessagesDelivered,
	}
	if sched != nil {
		if cfg.DriverGoroutines {
			point.Engine = "des-goro"
		}
		point.Workers = sched.Workers()
		point.Events = sched.EventsExecuted()
		point.TraceHash = sched.TraceHash()
		if s := wall.Seconds(); s > 0 {
			point.EventsPerSec = float64(point.Events) / s
		}
	}
	return point, nil
}

// esServer is one device's event-mode advertisement service: the
// accept handler arms a recursive serve chain — receive an ad, answer
// with ours, wait for the next — that lives entirely in delivery
// events, replacing the accept-loop and per-exchange handler
// goroutines of the goroutine-driver paths.
type esServer struct {
	ad []byte
}

func (s *esServer) accept(ctx *des.Ctx, c *netsim.Conn) {
	s.serve(ctx, c)
}

func (s *esServer) serve(ctx *des.Ctx, c *netsim.Conn) {
	c.RecvEvent(ctx, func(ctx *des.Ctx, _ []byte, err error) {
		if err != nil {
			c.CloseEvent(ctx)
			return
		}
		if c.SendEvent(ctx, s.ad) != nil {
			c.CloseEvent(ctx)
			return
		}
		s.serve(ctx, c)
	})
}

// esDriver is one device's workload driver as an event cascade: the
// event-native translation of driveEngineScaleDevice, step for step —
// the inquiry window is a scheduled delay instead of a clock sleep,
// each capped-fanout exchange is a DialEvent → SendEvent → RecvEvent →
// CloseEvent continuation chain instead of four blocking calls, and
// the next round reschedules startRound. Every continuation runs on
// this device's home (dial completions, deliveries and teardowns are
// all scheduled there), so driver state needs no locks: events on one
// home are ordered, whatever the shard or worker count.
type esDriver struct {
	cfg         EngineScaleConfig
	env         *radio.Environment
	net         *netsim.Network
	dev         ids.DeviceID
	home        uint64
	inquiry     time.Duration
	groupsTotal *atomic.Int64
	self        core.Member
	ad          []byte

	round  int
	neigh  []ids.DeviceID
	j      int
	nearby []core.Member
}

// startRound fires after the device's inquiry window: neighborhood
// query (epoch-pinned, see driveEngineScaleDevice), then the exchange
// chain.
func (d *esDriver) startRound(ctx *des.Ctx) {
	epoch := d.env.Elapsed().Truncate(d.env.PHY(radio.Bluetooth).InquiryDuration)
	d.neigh = d.env.NeighborsAt(d.dev, radio.Bluetooth, epoch)
	d.nearby = d.nearby[:0]
	d.j = 0
	d.nextExchange(ctx)
}

// nextExchange dials the next capped-fanout neighbor, or finishes the
// round when the cap (or the neighborhood) is exhausted. Failures at
// any step skip to the next neighbor, exactly like the blocking
// driver.
func (d *esDriver) nextExchange(ctx *des.Ctx) {
	if d.j >= d.cfg.Fanout || d.j >= len(d.neigh) {
		d.finishRound(ctx)
		return
	}
	peer := d.neigh[d.j]
	d.j++
	d.net.DialEvent(ctx, d.dev, peer, radio.Bluetooth, "esd", func(ctx *des.Ctx, c *netsim.Conn, err error) {
		if err != nil {
			d.nextExchange(ctx)
			return
		}
		if c.SendEvent(ctx, d.ad) != nil {
			c.CloseEvent(ctx)
			d.nextExchange(ctx)
			return
		}
		c.RecvEvent(ctx, func(ctx *des.Ctx, msg []byte, err error) {
			if err == nil {
				if ints, ok := engineScaleParse(msg); ok {
					d.nearby = append(d.nearby, core.Member{Device: peer, ID: ids.MemberID(peer), Interests: ints})
				}
			}
			c.CloseEvent(ctx)
			d.nextExchange(ctx)
		})
	})
}

// finishRound forms the round's groups and schedules the next round's
// inquiry window, retiring the cascade after the last round.
func (d *esDriver) finishRound(ctx *des.Ctx) {
	d.groupsTotal.Add(int64(len(core.DiscoverGroups(d.self, d.nearby, nil))))
	d.round++
	if d.round < d.cfg.Rounds {
		ctx.At(d.inquiry, d.home, d.startRound)
	}
}

// driveEngineScaleDevice runs one device's discovery round: inquiry
// window, neighborhood query, capped-fanout interest exchange, group
// formation.
func driveEngineScaleDevice(ctx context.Context, cfg EngineScaleConfig, env *radio.Environment, net *netsim.Network, clock vtime.Clock, inquiry time.Duration, devs []ids.DeviceID, i int, groupsTotal *atomic.Int64) {
	clock.Sleep(inquiry)
	dev := devs[i]
	// Pin the neighborhood query to an inquiry-sized epoch. The world is
	// static here, so the answer is the same at any instant — but on the
	// event engine every device wakes at its own virtual nanosecond, and
	// un-pinned queries would each rebuild the O(n) world snapshot
	// instead of sharing one per epoch (the radio package's query-epoch
	// rule; at 10k devices that rebuild is the whole sweep's cost).
	epoch := env.Elapsed().Truncate(env.PHY(radio.Bluetooth).InquiryDuration)
	neigh := env.NeighborsAt(dev, radio.Bluetooth, epoch)
	self := core.Member{Device: dev, ID: ids.MemberID(dev), Interests: engineScaleInterests(i)}
	var nearby []core.Member
	ad := engineScaleAd(dev, self.Interests)
	for j := 0; j < cfg.Fanout && j < len(neigh); j++ {
		c, err := net.Dial(ctx, dev, neigh[j], radio.Bluetooth, "esd")
		if err != nil {
			continue
		}
		if c.Send(ad) == nil {
			if msg, err := c.Recv(ctx); err == nil {
				if ints, ok := engineScaleParse(msg); ok {
					nearby = append(nearby, core.Member{Device: neigh[j], ID: ids.MemberID(neigh[j]), Interests: ints})
				}
			}
		}
		_ = c.Close()
	}
	groupsTotal.Add(int64(len(core.DiscoverGroups(self, nearby, nil))))
}

// FormatEngineScale renders the series as a table.
func FormatEngineScale(points []EngineScalePoint) string {
	header := []string{"Devices", "Engine", "Workers", "Wall", "Virtual", "Events", "Events/s", "ns/dev-round", "Groups", "Delivered"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		events, eps, workers := "-", "-", "-"
		if p.Events > 0 {
			events = fmt.Sprintf("%d", p.Events)
			eps = fmt.Sprintf("%.0f", p.EventsPerSec)
		}
		if p.Workers > 0 {
			workers = fmt.Sprintf("%d", p.Workers)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Devices),
			p.Engine,
			workers,
			p.Wall.Round(time.Millisecond).String(),
			p.Virtual.Round(time.Millisecond).String(),
			events,
			eps,
			fmt.Sprintf("%.0f", p.NsPerDeviceRound),
			fmt.Sprintf("%d", p.Groups),
			fmt.Sprintf("%d", p.Delivered),
		})
	}
	return FormatTable(header, rows)
}
