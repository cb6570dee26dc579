package netsim_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// This file pins the conn-pair free list (conn.go): dial/close churn
// dominated the allocation profile of the large discovery sweeps, so a
// steady-state dial + request/reply + close cycle must not reallocate
// the pair or its queues. The ceilings below have slack for the
// per-cycle incidentals (fresh closed channels, payload copies, timer
// and event bookkeeping) but sit far under the cost of one unpooled
// pair: its two receive queues alone are ~12 KB, several allocations
// each.

// poolCeilingAllocs bounds average allocations per cycle; an unpooled
// pair adds ~10 on top of a pooled cycle's incidentals.
const poolCeilingAllocs = 50

// buildPoolWorld places two devices in Bluetooth range and starts a
// serial echo server on one of them.
func buildPoolWorld(t *testing.T, useDES bool) (*netsim.Network, func()) {
	t.Helper()
	opts := []radio.Option{radio.WithScale(vtime.NewScale(1e-6))}
	var sched *des.Scheduler
	if useDES {
		sched = des.NewScheduler(1, 2)
		opts = append(opts, radio.WithClock(sched.Clock()))
	}
	env := radio.NewEnvironment(opts...)
	for _, dev := range []string{"pool-a", "pool-b"} {
		if err := env.Add(ids.DeviceID(dev), mobility.Static{At: geo.Pt(1, 1)}, radio.Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	var net *netsim.Network
	stop := func() {}
	if useDES {
		net = netsim.NewDES(env, 1, sched)
		sched.Start()
		stop = sched.Stop
	} else {
		net = netsim.New(env, 1)
	}
	l, err := net.Listen(ids.DeviceID("pool-b"), "echo")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	go func() {
		for {
			c, err := l.Accept(ctx)
			if err != nil {
				return
			}
			if msg, err := c.Recv(ctx); err == nil {
				_ = c.Send(msg)
			}
			_ = c.Close()
		}
	}()
	cleanup := func() {
		net.Close()
		stop()
	}
	return net, cleanup
}

// TestConnPairAllocsPinned measures a full dial + request/reply +
// close cycle on both engines: once the pool is warm, the per-cycle
// allocation count must stay under the pooled ceiling.
func TestConnPairAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per sync event; the pin only means anything uninstrumented")
	}
	for _, useDES := range []bool{false, true} {
		name := "goroutine"
		if useDES {
			name = "des"
		}
		t.Run(name, func(t *testing.T) {
			net, cleanup := buildPoolWorld(t, useDES)
			defer cleanup()
			ctx := context.Background()
			cycle := func() {
				c, err := net.Dial(ctx, ids.DeviceID("pool-a"), ids.DeviceID("pool-b"), radio.Bluetooth, "echo")
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				if err := c.Send([]byte("ping")); err != nil {
					t.Fatalf("send: %v", err)
				}
				if _, err := c.Recv(ctx); err != nil {
					t.Fatalf("recv: %v", err)
				}
				_ = c.Close()
			}
			// Warm the pool (and let the first pair's pumps retire).
			for i := 0; i < 32; i++ {
				cycle()
			}
			avg := testing.AllocsPerRun(200, cycle)
			if avg > poolCeilingAllocs {
				t.Fatalf("dial cycle allocates %.1f objects on average, ceiling %d: conn-pair pooling regressed", avg, poolCeilingAllocs)
			}
			t.Logf("%s: %.1f allocs per dial cycle", name, avg)
		})
	}
}

// pairBytesCeiling bounds the heap an open event-engine pair retains:
// both ends, their event state and everything a dial leaves behind.
// It was ~12.6 KiB while each end carried a 256-slot receive channel.
const pairBytesCeiling = 2 << 10

// desEventWorld is an event-engine network in pure event mode with two
// devices in Bluetooth range and a listener whose AcceptEvent handler
// keeps every accepted end; dial opens k pairs from one event and runs
// the scheduler until they are established.
func desEventWorld(t *testing.T) (net *netsim.Network, sched *des.Scheduler, dial func(k int) []*netsim.Conn) {
	t.Helper()
	sched = des.NewScheduler(1, 1)
	env := radio.NewEnvironment(radio.WithClock(sched.Clock()), radio.WithScale(vtime.NewScale(1e-3)))
	net = netsim.NewDES(env, 1, sched)
	t.Cleanup(net.Close)
	for _, dev := range []string{"mem-a", "mem-b"} {
		if err := env.Add(ids.DeviceID(dev), mobility.Static{At: geo.Pt(1, 1)}, radio.Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("mem-b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	var held []*netsim.Conn
	l.AcceptEvent(func(ctx *des.Ctx, c *netsim.Conn) { held = append(held, c) })
	dial = func(k int) []*netsim.Conn {
		held = make([]*netsim.Conn, 0, 2*k)
		var dialErr error
		sched.At(0, netsim.DeviceHome("mem-a"), func(ctx *des.Ctx) {
			for i := 0; i < k; i++ {
				net.DialEvent(ctx, "mem-a", "mem-b", radio.Bluetooth, "svc", func(ctx *des.Ctx, c *netsim.Conn, err error) {
					if err != nil {
						dialErr = err
						return
					}
					held = append(held, c)
				})
			}
		})
		// One modeled second is one scheduler millisecond at this
		// scale; a Bluetooth connection setup takes a few.
		runFor(sched, 20*time.Millisecond)
		if dialErr != nil || len(held) != 2*k {
			t.Fatalf("dialed %d of %d pairs: %v", len(held)/2, k, dialErr)
		}
		return held
	}
	return net, sched, dial
}

// runFor runs a pure-event scheduler d past its current instant.
func runFor(sched *des.Scheduler, d time.Duration) {
	sched.RunUntil(time.Duration(sched.NowNS()) + d)
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDESPairRetainedMemory holds 1,000 open event-engine pairs and
// pins the heap each retains.
func TestDESPairRetainedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes heap sizes; the pin only means anything uninstrumented")
	}
	const pairs = 1000
	_, _, dial := desEventWorld(t)
	warm := dial(16) // first-use growth of the network's tables
	before := heapAlloc()
	held := dial(pairs)
	perPair := float64(heapAlloc()-before) / pairs
	runtime.KeepAlive(warm)
	runtime.KeepAlive(held)
	if perPair > pairBytesCeiling {
		t.Fatalf("an open event-engine pair retains %.0f B, ceiling %d", perPair, pairBytesCeiling)
	}
	t.Logf("%.0f B retained per open event-engine pair", perPair)
}

// TestDESRecycledPairSurvivesGC: a released pair waits on the free
// list through a garbage collection — a sync.Pool would have dropped
// it — and the next dial reuses it instead of building a fresh one.
func TestDESRecycledPairSurvivesGC(t *testing.T) {
	net, sched, dial := desEventWorld(t)
	first := dial(1)
	sched.At(0, netsim.DeviceHome("mem-a"), func(ctx *des.Ctx) { first[0].CloseEvent(ctx) })
	runFor(sched, 20*time.Millisecond)
	first[1].Abort()
	if n := netsim.FreePairs(net); n != 1 {
		t.Fatalf("%d pairs on the free list after both ends let go, want 1", n)
	}
	runtime.GC()
	runtime.GC()
	again := dial(1)
	if !netsim.SamePair(first[0], again[0]) {
		t.Fatal("the dial after a GC built a fresh pair instead of reusing the released one")
	}
	if n := netsim.FreePairs(net); n != 0 {
		t.Fatalf("%d pairs left on the free list, want 0", n)
	}
	for _, c := range again {
		c.Abort()
	}
}
