package netsim

import (
	"context"
	"sync"
)

// Server is an accept-and-serve loop running on a Listener; see
// Listener.Serve.
type Server struct {
	l      *Listener
	cancel context.CancelFunc
	done   chan struct{}
}

// Serve starts the accept-and-serve loop every blocking service in the
// simulator shares (DESIGN.md, "Shared plumbing"). It accepts on l
// until ctx ends or l closes, runs handle(ctx, c) for each conn on its
// own goroutine, and closes the conn when handle returns. The
// handlers' ctx is a child of ctx that Stop cancels. The loop runs in
// the background: Stop ends it, and Done is closed only after the loop
// and every handler it started have returned.
func (l *Listener) Serve(ctx context.Context, handle func(ctx context.Context, c *Conn)) *Server {
	ctx, cancel := context.WithCancel(ctx)
	s := &Server{l: l, cancel: cancel, done: make(chan struct{})}
	go s.run(ctx, handle)
	return s
}

func (s *Server) run(ctx context.Context, handle func(ctx context.Context, c *Conn)) {
	var handlers sync.WaitGroup
	defer close(s.done)
	defer s.cancel()
	defer handlers.Wait()
	for {
		c, err := s.l.Accept(ctx)
		if err != nil {
			return
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			defer func() { _ = c.Close() }() // the exchange is over either way
			handle(ctx, c)
		}()
	}
}

// Stop cancels the handlers' context, closes the listener, and returns
// once the loop and every handler have returned.
func (s *Server) Stop() {
	s.cancel()
	s.l.Close()
	<-s.done
}

// Done is closed once the loop and every handler it started have
// returned.
func (s *Server) Done() <-chan struct{} { return s.done }
