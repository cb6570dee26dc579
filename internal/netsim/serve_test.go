package netsim

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// serveWorld builds a two-device network on the named engine; the
// event engine runs its integrated runner, as blocking services need.
func serveWorld(t *testing.T, engine string) *Network {
	t.Helper()
	var net *Network
	var env *radio.Environment
	if engine == "des" {
		sched := des.NewScheduler(1, 2)
		env = radio.NewEnvironment(radio.WithClock(sched.Clock()), radio.WithScale(vtime.NewScale(1e-4)))
		net = NewDES(env, 1, sched)
		sched.Start()
		t.Cleanup(func() {
			net.Close()
			sched.Stop()
		})
	} else {
		env, net = fastWorld(t)
	}
	addStatic(t, env, "sa", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "sb", geo.Pt(5, 0), radio.Bluetooth)
	return net
}

// TestServe pins the shared accept-and-serve loop on both engines:
// every conn gets its own handler, each conn is closed once its handler
// returns, and neither Stop nor a canceled ctx lets the loop finish
// before the handlers still running have returned. The package's leak
// checker then holds the loop to leaving no goroutine behind.
func TestServe(t *testing.T) {
	for _, engine := range []string{"goroutine", "des"} {
		for _, end := range []string{"stop", "cancel"} {
			t.Run(engine+"/"+end, func(t *testing.T) {
				net := serveWorld(t, engine)
				l, err := net.Listen("sb", "svc")
				if err != nil {
					t.Fatal(err)
				}
				const conns = 3
				var started, finished atomic.Int32
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				srv := l.Serve(ctx, func(ctx context.Context, c *Conn) {
					started.Add(1)
					if msg, err := c.Recv(ctx); err == nil {
						_ = c.Send(msg)
					}
					<-ctx.Done()
					// Linger past the cancel: a loop that did not wait
					// for its handlers would finish inside this window.
					time.Sleep(20 * time.Millisecond)
					finished.Add(1)
				})

				rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer rcancel()
				clients := make([]*Conn, conns)
				for i := range clients {
					c, err := net.Dial(rctx, "sa", "sb", radio.Bluetooth, "svc")
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = c.Close() }()
					if err := c.Send([]byte("ping")); err != nil {
						t.Fatal(err)
					}
					if msg, err := c.Recv(rctx); err != nil || string(msg) != "ping" {
						t.Fatalf("echo = %q, %v", msg, err)
					}
					clients[i] = c
				}
				if got := started.Load(); got != conns {
					t.Fatalf("%d handlers started, want %d", got, conns)
				}

				if end == "stop" {
					srv.Stop()
				} else {
					cancel()
					select {
					case <-srv.Done():
					case <-rctx.Done():
						t.Fatal("loop did not finish after its ctx was canceled")
					}
				}
				if got := finished.Load(); got != conns {
					t.Fatalf("loop finished with %d of %d handlers returned", got, conns)
				}
				for i, c := range clients {
					if _, err := c.Recv(rctx); err == nil || rctx.Err() != nil {
						t.Fatalf("client %d: server end still open after its handler returned (err %v)", i, err)
					}
				}
				if end == "stop" {
					if _, err := net.Dial(rctx, "sa", "sb", radio.Bluetooth, "svc"); err == nil {
						t.Fatal("listener still accepting after Stop")
					}
				}
			})
		}
	}
}
