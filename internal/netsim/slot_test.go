package netsim_test

import (
	"context"
	"errors"
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

// This file holds the conn path on resolved radio slots to the world
// it was resolved in: a conn's slots stay bound to its devices' IDs,
// so a conn held open while its peer is removed and re-added keeps
// working, a peer that stays removed still breaks it, and the
// per-message link check costs no allocation.

// addBT places a static Bluetooth device.
func addBT(t *testing.T, env *radio.Environment, id ids.DeviceID, at geo.Point) {
	t.Helper()
	if err := env.Add(id, mobility.Static{At: at}, radio.Bluetooth); err != nil {
		t.Fatal(err)
	}
}

// advancer moves a manual clock forward from the side until stopped.
type advancer struct {
	stop, done chan struct{}
}

func startAdvancer(clk *vtime.Manual) *advancer {
	a := &advancer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		for {
			select {
			case <-a.stop:
				return
			default:
				clk.Advance(50 * time.Millisecond)
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	return a
}

func (a *advancer) halt() {
	close(a.stop)
	<-a.done
}

// TestConnHeldAcrossRemoveAndReAdd, goroutine engine: with the manual
// clock parked, the peer is removed and re-added at the same spot, so
// no link sweep runs while it is gone; the conn's slot-path check
// follows the device out and back in, and the conn then carries a
// message and survives further sweeps. Removed for good, the peer's
// absence breaks the conn at the next sweep.
func TestConnHeldAcrossRemoveAndReAdd(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	env := radio.NewEnvironment(radio.WithClock(clk))
	net := netsim.New(env, 1)
	defer net.Close()
	addBT(t, env, "a", geo.Pt(0, 0))
	addBT(t, env, "b", geo.Pt(3, 0))
	l, err := net.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	accepted := make(chan *netsim.Conn, 1)
	go func() {
		if c, err := l.Accept(ctx); err == nil {
			accepted <- c
		}
	}()

	adv := startAdvancer(clk)
	client, err := net.Dial(ctx, "a", "b", radio.Bluetooth, "svc")
	if err != nil {
		adv.halt()
		t.Fatal(err)
	}
	defer client.Abort()
	server := <-accepted
	adv.halt()
	// Wait for the link sweeper to park on its next timer: with the
	// clock stopped it cannot run again until the clock moves.
	for clk.Waiters() == 0 {
		time.Sleep(50 * time.Microsecond)
	}

	env.Remove("b")
	if netsim.ConnLinkUp(client) {
		t.Fatal("link check passes with the peer removed")
	}
	addBT(t, env, "b", geo.Pt(3, 0))
	if !netsim.ConnLinkUp(client) {
		t.Fatal("link check fails after the peer was re-added to its slot")
	}

	adv = startAdvancer(clk)
	if err := client.Send([]byte("hello")); err != nil {
		adv.halt()
		t.Fatalf("send after re-add: %v", err)
	}
	msg, err := server.Recv(ctx)
	adv.halt()
	if err != nil || string(msg) != "hello" {
		t.Fatalf("recv after re-add = %q, %v", msg, err)
	}
	if !client.Alive() || !server.Alive() {
		t.Fatalf("conn died across remove and re-add: %v", client.Err())
	}

	env.Remove("b")
	adv = startAdvancer(clk)
	deadline := time.Now().Add(5 * time.Second)
	for client.Alive() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	adv.halt()
	if err := client.Err(); !errors.Is(err, netsim.ErrLinkLost) {
		t.Fatalf("conn to a removed peer: Err = %v, want ErrLinkLost", err)
	}
}

// TestConnHeldAcrossRemoveAndReAddDES is the same property on the
// event engine, driven in pure event mode so virtual time moves only
// inside RunUntil: a remove and re-add between two runs is invisible
// to the link sweep, a message sent afterwards is delivered and the
// conn outlives several sweeps; a peer left removed breaks the conn at
// the next sweep.
func TestConnHeldAcrossRemoveAndReAddDES(t *testing.T) {
	sched := des.NewScheduler(1, 2)
	env := radio.NewEnvironment(radio.WithClock(sched.Clock()), radio.WithScale(vtime.NewScale(1e-3)))
	net := netsim.NewDES(env, 1, sched)
	defer net.Close()
	addBT(t, env, "a", geo.Pt(0, 0))
	addBT(t, env, "b", geo.Pt(3, 0))
	l, err := net.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got []string
	l.AcceptEvent(func(ctx *des.Ctx, c *netsim.Conn) {
		c.RecvEvent(ctx, func(ctx *des.Ctx, p []byte, err error) {
			if err == nil {
				got = append(got, string(p))
			}
		})
	})
	var client *netsim.Conn
	var dialErr error
	sched.At(0, netsim.DeviceHome("a"), func(ctx *des.Ctx) {
		net.DialEvent(ctx, "a", "b", radio.Bluetooth, "svc", func(ctx *des.Ctx, c *netsim.Conn, err error) {
			client, dialErr = c, err
		})
	})
	// One modeled second is one scheduler millisecond at this scale,
	// and the link sweep runs once per modeled second.
	horizon := 5 * time.Millisecond
	sched.RunUntil(horizon)
	if dialErr != nil || client == nil {
		t.Fatalf("dial: %v", dialErr)
	}

	env.Remove("b")
	if netsim.ConnLinkUp(client) {
		t.Fatal("link check passes with the peer removed")
	}
	addBT(t, env, "b", geo.Pt(3, 0))
	var sendErr error
	sched.At(0, netsim.DeviceHome("a"), func(ctx *des.Ctx) { sendErr = client.SendEvent(ctx, []byte("hello")) })
	horizon += 5 * time.Millisecond
	sched.RunUntil(horizon)
	if sendErr != nil {
		t.Fatalf("send after re-add: %v", sendErr)
	}
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered after re-add: %q, want [hello]", got)
	}
	if !client.Alive() {
		t.Fatalf("conn died across remove and re-add: %v", client.Err())
	}

	env.Remove("b")
	horizon += 2 * time.Millisecond
	sched.RunUntil(horizon)
	if err := client.Err(); !errors.Is(err, netsim.ErrLinkLost) {
		t.Fatalf("conn to a removed peer: Err = %v, want ErrLinkLost", err)
	}
	client.Abort()
}

// TestConnLinkCheckAllocatesNothing pins the per-message link check on
// resolved slots at zero allocations.
func TestConnLinkCheckAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per sync event; the pin only means anything uninstrumented")
	}
	env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-6)))
	net := netsim.New(env, 1)
	defer net.Close()
	addBT(t, env, "a", geo.Pt(0, 0))
	addBT(t, env, "b", geo.Pt(3, 0))
	l, err := net.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		if c, err := l.Accept(ctx); err == nil {
			defer c.Abort()
			_, _ = c.Recv(ctx)
		}
	}()
	client, err := net.Dial(ctx, "a", "b", radio.Bluetooth, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Abort()
	allocs := testing.AllocsPerRun(500, func() {
		if !netsim.ConnLinkUp(client) {
			t.Fatal("link check failed on an in-range pair")
		}
	})
	if allocs != 0 {
		t.Fatalf("conn link check allocates %.1f objects per call, want 0", allocs)
	}
}
