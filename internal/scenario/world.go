package scenario

import (
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/radio"
)

// Engine picks the transport engine a world runs on. The zero value is
// the goroutine engine, the differential oracle.
type Engine struct {
	// DES selects the discrete-event engine.
	DES bool
	// Shards overrides the event scheduler's shard count (default 8).
	// Homes are hashed, so any count yields the same trace; it only
	// sets the intra-window parallelism.
	Shards int
	// Workers overrides the scheduler's executor count (default
	// GOMAXPROCS). It trades wall-clock only.
	Workers int
}

// desDefaultShards is the event scheduler's shard count when Engine
// gives none.
const desDefaultShards = 8

// String names the engine as the sweeps report it.
func (e Engine) String() string {
	if e.DES {
		return "des"
	}
	return "goroutine"
}

// World is a radio environment and the transport over it, on one
// engine. NewWorld is the one place a world's scheduler, radio clock
// and network are set up; Start and Close start and stop them.
type World struct {
	Env   *radio.Environment
	Net   *netsim.Network
	Sched *des.Scheduler // nil on the goroutine engine
}

// NewWorld builds an empty world. opts are the radio options (scale,
// PHY overrides); on the event engine the environment also rides the
// scheduler's clock, and the scheduler and the network draw from seed.
func NewWorld(e Engine, seed int64, opts ...radio.Option) *World {
	w := &World{}
	if e.DES {
		shards := e.Shards
		if shards <= 0 {
			shards = desDefaultShards
		}
		w.Sched = des.NewScheduler(seed, shards)
		if e.Workers > 0 {
			w.Sched.SetWorkers(e.Workers)
		}
		opts = append(opts[:len(opts):len(opts)], radio.WithClock(w.Sched.Clock()))
	}
	w.Env = radio.NewEnvironment(opts...)
	if w.Sched != nil {
		w.Net = netsim.NewDES(w.Env, seed, w.Sched)
	} else {
		w.Net = netsim.New(w.Env, seed)
	}
	return w
}

// Start starts the event scheduler's background runner, which blocking
// code on the event engine needs to see time advance. Event-native
// drivers that drain the queue with Sched.Run skip it. On the
// goroutine engine it does nothing.
func (w *World) Start() {
	if w.Sched != nil {
		w.Sched.Start()
	}
}

// Close closes the network, then stops the scheduler: conn teardown
// unblocks the world's goroutines through their own error paths, and
// stopping the scheduler then releases any waiter still parked on its
// clock.
func (w *World) Close() {
	w.Net.Close()
	if w.Sched != nil {
		w.Sched.Stop()
	}
}
