package netsim

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// This file pins the event engine's blocking Recv (desRecv): the
// goroutine engine reads a channel, the event engine a slice queue
// with a wake channel, and the two must keep the same contract.

// desIntegratedWorld builds an event-engine network driven by the
// integrated runner, as full deployments run it, with two devices in
// Bluetooth range and a conn between them.
func desIntegratedWorld(t *testing.T) (*radio.Environment, *Conn, *Conn) {
	t.Helper()
	sched := des.NewScheduler(1, 2)
	env := radio.NewEnvironment(radio.WithClock(sched.Clock()), radio.WithScale(vtime.NewScale(1e-4)))
	net := NewDES(env, 1, sched)
	sched.Start()
	t.Cleanup(func() {
		net.Close()
		sched.Stop()
	})
	addStatic(t, env, "ra", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "rb", geo.Pt(5, 0), radio.Bluetooth)
	client, server := dialPair(t, net, "ra", "rb", radio.Bluetooth, "svc")
	return env, client, server
}

// parkedReaders reports how many goroutines are parked in desRecv on c.
func parkedReaders(c *Conn) int {
	c.des.mu.Lock()
	defer c.des.mu.Unlock()
	return c.des.parked
}

// waitFor polls cond for up to five real seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// Two goroutines reading one end between them get every message
// exactly once, each in send order.
func TestDESRecvTwoReadersEachMessageOnce(t *testing.T) {
	_, client, server := desIntegratedWorld(t)
	const total = 3 * sendQueueLen
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	got := make([][]int, 2)
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msg, err := server.Recv(ctx)
				if err != nil {
					return
				}
				i, _ := strconv.Atoi(string(msg))
				got[r] = append(got[r], i)
			}
		}()
	}
	for i := 0; i < total; i++ {
		if err := client.Send([]byte(strconv.Itoa(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	_ = client.Close()
	wg.Wait()
	seen := make([]int, total)
	for r, msgs := range got {
		for k, i := range msgs {
			if k > 0 && i <= msgs[k-1] {
				t.Fatalf("reader %d read %d after %d", r, i, msgs[k-1])
			}
			seen[i]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("message %d read %d times (reader shares %d/%d)", i, n, len(got[0]), len(got[1]))
		}
	}
	if err := ctx.Err(); err != nil {
		t.Fatalf("readers ran out of time: %v", err)
	}
}

// Messages delivered before a link loss stay readable after the conn
// dies; the loss is reported once they are gone.
func TestDESRecvDeliveredSurvivesLinkLoss(t *testing.T) {
	env, client, server := desIntegratedWorld(t)
	defer client.Abort()
	for i := 0; i < 3; i++ {
		if err := client.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "delivery", func() bool {
		server.des.mu.Lock()
		defer server.des.mu.Unlock()
		return server.des.ready == 3
	})
	env.Remove("ra")
	waitFor(t, "link loss", func() bool { return !server.Alive() })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		msg, err := server.Recv(ctx)
		if err != nil || len(msg) != 1 || msg[0] != byte(i) {
			t.Fatalf("read %d after link loss: %v, %v", i, msg, err)
		}
	}
	if _, err := server.Recv(ctx); !errors.Is(err, ErrLinkLost) {
		t.Fatalf("read past the delivered messages: %v, want ErrLinkLost", err)
	}
}

// A cancelled context ends a parked Recv with ctx.Err() and leaves no
// wake token behind; the conn stays usable.
func TestDESRecvContextCancel(t *testing.T) {
	_, client, server := desIntegratedWorld(t)
	defer client.Abort()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := server.Recv(ctx)
		done <- err
	}()
	waitFor(t, "reader to park", func() bool { return parkedReaders(server) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Recv: %v, want context.Canceled", err)
	}
	if n := parkedReaders(server); n != 0 || len(server.des.wake) != 0 {
		t.Fatalf("after cancel: %d parked, %d wake tokens; want 0, 0", n, len(server.des.wake))
	}
	if _, err := server.Recv(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Recv on a done context: %v, want context.Canceled", err)
	}
	if err := client.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	live, liveCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer liveCancel()
	if msg, err := server.Recv(live); err != nil || string(msg) != "after" {
		t.Fatalf("Recv after a cancelled one: %q, %v", msg, err)
	}
}

// A reader that parks before anything was ever sent wakes at the first
// delivery, and the wake leaves no token behind.
func TestDESRecvParkedBeforeFirstDelivery(t *testing.T) {
	_, client, server := desIntegratedWorld(t)
	defer client.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type result struct {
		msg []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		msg, err := server.Recv(ctx)
		done <- result{msg, err}
	}()
	waitFor(t, "reader to park", func() bool { return parkedReaders(server) == 1 })
	if err := client.Send([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil || string(r.msg) != "first" {
		t.Fatalf("parked reader got %q, %v", r.msg, r.err)
	}
	if len(server.des.wake) != 0 {
		t.Fatal("a wake token outlived the reader it woke")
	}
}

// The event engine applies backpressure at the goroutine engine's
// depth (TestSendDeadlineOnNeverReadingPeer): with the peer never
// reading, sendQueueLen messages fill its receive queue, sendQueueLen
// more are held in flight, and the next SendDeadline times out.
func TestDESSendDeadlineOnNeverReadingPeer(t *testing.T) {
	env, writer, _ := desIntegratedWorld(t)
	defer writer.Abort()
	sent := 0
	for ; sent < 3*sendQueueLen; sent++ {
		err := writer.SendDeadline([]byte("x"), env.Clock().After(env.Scale().ToReal(time.Minute)))
		if err != nil {
			if !errors.Is(err, ErrSendTimeout) {
				t.Fatalf("send %d: want ErrSendTimeout, got %v", sent, err)
			}
			break
		}
	}
	if sent > 2*sendQueueLen+1 || sent < 2*sendQueueLen {
		t.Fatalf("%d sends admitted before the deadline fired, want %d to %d", sent, 2*sendQueueLen, 2*sendQueueLen+1)
	}
	t.Logf("%d sends admitted", sent)
	if !writer.Alive() {
		t.Fatal("send deadline must not kill the connection")
	}
}

// The receive ring keeps FIFO order across wrap-around and growth.
func TestMsgRingFIFO(t *testing.T) {
	var r msgRing
	next, want := uint64(0), uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			next++
			r.push(&desMsg{seq: next})
		}
		for i := 0; i < round%5+1 && r.n > 0; i++ {
			want++
			if m := r.pop(); m.seq != want {
				t.Fatalf("round %d: popped %d, want %d", round, m.seq, want)
			}
		}
	}
	keep := r.n / 2
	r.truncate(keep)
	for i := 0; i < keep; i++ {
		want++
		if m := r.pop(); m.seq != want {
			t.Fatalf("after truncate: popped %d, want %d", m.seq, want)
		}
	}
	if r.n != 0 {
		t.Fatalf("%d messages left after draining", r.n)
	}
}
