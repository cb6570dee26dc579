package netsim

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/radio"
)

// relayPort is the well-known port a GPRS operator proxy listens on.
const relayPort = "gprs.relay"

// Proxy is the operator-side bridge of the thesis's GPRSPlugin
// (§4.2.3): "GPRSPlugin also operates over IP connections and uses
// proxy device as a bridge or an intermediate device." Traffic relayed
// through a proxy crosses the cellular link twice (caller→proxy and
// proxy→callee), doubling latency relative to a direct link — the
// structural reason GPRS is the last-resort technology.
type Proxy struct {
	net *Network
	dev ids.DeviceID
	srv *Server

	mu      sync.Mutex
	relayed int
}

// NewProxy starts a relay on a device (the device models the operator's
// gateway; it must carry a GPRS radio and be in coverage).
func NewProxy(net *Network, dev ids.DeviceID) (*Proxy, error) {
	listener, err := net.Listen(dev, relayPort)
	if err != nil {
		return nil, fmt.Errorf("netsim: proxy: %w", err)
	}
	p := &Proxy{net: net, dev: dev}
	p.srv = listener.Serve(context.Background(), p.bridge)
	return p, nil
}

// Device returns the proxy's device ID.
func (p *Proxy) Device() ids.DeviceID { return p.dev }

// Relayed reports how many connections the proxy has bridged.
func (p *Proxy) Relayed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.relayed
}

// Stop shuts the relay down; bridged connections break.
func (p *Proxy) Stop() {
	p.srv.Stop()
}

// bridge reads the CONNECT preamble ("device|port"), dials the target
// over GPRS, and pipes both directions until either side dies.
func (p *Proxy) bridge(ctx context.Context, inbound *Conn) {
	preamble, err := inbound.Recv(ctx)
	if err != nil {
		return
	}
	target, port, ok := splitPreamble(string(preamble))
	if !ok {
		_ = inbound.Send([]byte("ERR bad connect preamble"))
		return
	}
	outbound, err := p.net.Dial(ctx, p.dev, target, radio.GPRS, port)
	if err != nil {
		_ = inbound.Send([]byte("ERR " + err.Error()))
		return
	}
	defer func() { _ = outbound.Close() }()
	if err := inbound.Send([]byte("OK")); err != nil {
		return
	}
	p.mu.Lock()
	p.relayed++
	p.mu.Unlock()

	// Either direction failing cancels the other, and the deferred
	// Closes run only after both pipes have fully exited — a pipe must
	// never race its own conn's teardown.
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	var pipes sync.WaitGroup
	pipe := func(src, dst *Conn) {
		defer pipes.Done()
		defer pcancel()
		for {
			msg, err := src.Recv(pctx)
			if err != nil {
				return
			}
			if err := dst.SendCancel(msg, pctx.Done()); err != nil {
				return
			}
		}
	}
	pipes.Add(2)
	go pipe(inbound, outbound)
	go pipe(outbound, inbound)
	pipes.Wait()
}

func splitPreamble(s string) (ids.DeviceID, string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '|' {
			dev := ids.DeviceID(s[:i])
			port := s[i+1:]
			if dev.Valid() && port != "" {
				return dev, port, true
			}
			return "", "", false
		}
	}
	return "", "", false
}

// DialViaProxy opens a connection to (target, port) bridged through the
// operator proxy instead of directly. The returned Conn behaves like a
// direct one but every message crosses two GPRS hops.
func (n *Network) DialViaProxy(ctx context.Context, from ids.DeviceID, proxy ids.DeviceID, target ids.DeviceID, port string) (*Conn, error) {
	conn, err := n.Dial(ctx, from, proxy, radio.GPRS, relayPort)
	if err != nil {
		return nil, fmt.Errorf("netsim: dialing proxy: %w", err)
	}
	if err := conn.Send([]byte(string(target) + "|" + port)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	resp, err := conn.Recv(ctx)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if string(resp) != "OK" {
		_ = conn.Close()
		return nil, fmt.Errorf("%w: proxy refused: %s", ErrUnreachable, resp)
	}
	return conn, nil
}
