package router

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"cmppower/internal/obs"
	"cmppower/internal/server"
)

// Proc is one backend shard process as the router sees it: an address
// plus a lifecycle. In-process shards (SpawnInProcess) implement the full
// lifecycle; attached external `cmppower serve` processes are addresses
// the router does not own (Kill and Shutdown are no-ops there — their
// operator controls them).
type Proc interface {
	// URL is the shard's base URL, e.g. "http://127.0.0.1:43712".
	URL() string
	// Kill stops the shard abruptly: in-flight requests die mid-stream.
	// The chaos path.
	Kill()
	// Shutdown drains the shard gracefully within ctx.
	Shutdown(ctx context.Context) error
}

// SpawnFunc boots one backend shard for the given slot and returns it
// already serving. The autoscaler and the chaos respawn path call it.
type SpawnFunc func(slot int) (Proc, error)

// SpawnInProcess returns a SpawnFunc that boots a complete serving-layer
// shard in this process on a loopback listener. Each shard gets its own
// registry, rig pool, response cache, memo cache, and admission queue —
// share-nothing over real HTTP, exactly the topology of separate
// `cmppower serve` processes, minus the exec.
func SpawnInProcess(base server.Config) SpawnFunc {
	return func(slot int) (Proc, error) {
		cfg := base
		cfg.Registry = obs.NewRegistry() // never share a registry across shards
		srv := server.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("router: spawn shard %d: %w", slot, err)
		}
		p := &inprocShard{srv: srv, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
		go func() { p.served <- srv.Serve(ln) }()
		return p, nil
	}
}

// inprocShard is a SpawnInProcess backend.
type inprocShard struct {
	srv    *server.Server
	url    string
	served chan error
}

func (p *inprocShard) URL() string { return p.url }

func (p *inprocShard) Kill() {
	p.srv.Close()
	<-p.served // the Serve goroutine has exited; the port is free
}

func (p *inprocShard) Shutdown(ctx context.Context) error {
	err := p.srv.Shutdown(ctx)
	select {
	case serveErr := <-p.served:
		if err == nil {
			err = serveErr
		}
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// attachedProc wraps an external backend URL the router routes to but
// does not own.
type attachedProc struct{ url string }

func (p attachedProc) URL() string                    { return p.url }
func (p attachedProc) Kill()                          {}
func (p attachedProc) Shutdown(context.Context) error { return nil }

// shard is one slot of the fleet: a backend plus the router's view of it.
// All fields except inflight are guarded by the owning Router's fleet
// mutex; inflight is atomic because the request path bumps it outside
// the lock.
type shard struct {
	slot int
	proc Proc
	url  string

	// Lifecycle. A dead shard was drained away by the autoscaler and its
	// slot may be respawned later; a down shard was chaos-killed and is
	// awaiting respawn.
	dead     bool
	down     bool
	draining bool

	// Health checker state: the eject/readmit streak machine.
	healthy    bool
	consecFail int
	consecOK   int

	br  breaker
	lat *latTracker

	// last*429 remember the previous scrape's cumulative counters so the
	// autoscaler works on deltas.
	lastRejected float64
	last429      float64

	inflight atomic.Int64
}

// routable reports whether the request path may send new work here.
// Caller holds the fleet mutex. now feeds the breaker's cooldown check.
func (s *shard) routable(now time.Time, cooldown time.Duration) bool {
	if s == nil || s.dead || s.down || s.draining || !s.healthy {
		return false
	}
	return s.br.eligible(now, cooldown)
}

// ShardInfo is the wire form of one slot on GET /fleet.
type ShardInfo struct {
	Slot     int    `json:"slot"`
	URL      string `json:"url"`
	State    string `json:"state"` // active, ejected, draining, down, dead
	Breaker  string `json:"breaker"`
	Inflight int64  `json:"inflight"`
}

// info snapshots one slot; caller holds the fleet mutex.
func (s *shard) info() ShardInfo {
	state := "active"
	switch {
	case s.dead:
		state = "dead"
	case s.down:
		state = "down"
	case s.draining:
		state = "draining"
	case !s.healthy:
		state = "ejected"
	}
	return ShardInfo{Slot: s.slot, URL: s.url, State: state,
		Breaker: s.br.state.String(), Inflight: s.inflight.Load()}
}

// waitDrained polls until the shard has no in-flight requests or ctx
// expires; used by scale-down so no accepted request is dropped.
func (s *shard) waitDrained(ctx context.Context) error {
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("router: slot %d still has %d in-flight after drain bound", s.slot, s.inflight.Load())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}
