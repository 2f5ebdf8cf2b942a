package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"cmppower/internal/experiment"
	"cmppower/internal/obs"
	"cmppower/internal/router"
	"cmppower/internal/server"
	"cmppower/internal/traffic"
)

// fleetShards is the serve shard count behind the router.
const fleetShards = 2

// fleet is the serving stack under test: fleetShards in-process serve
// shards on loopback listeners and a router attached to them, each
// behind an HTTP server of the benchmark's own so spans can wrap the
// handlers.
type fleet struct {
	shards    []*server.Server
	regs      []*obs.Registry
	shardURLs []string
	shardSrvs []*http.Server
	router    *router.Router
	routerSrv *http.Server
	url       string
	served    sync.WaitGroup
	serveErrs chan error
}

// bootFleet starts the shards and the router. tr may be nil.
func bootFleet(tr *tracer) (*fleet, error) {
	f := &fleet{serveErrs: make(chan error, fleetShards+1)}
	for i := 0; i < fleetShards; i++ {
		reg := obs.NewRegistry()
		s := server.New(server.Config{Registry: reg})
		f.shards = append(f.shards, s)
		f.regs = append(f.regs, reg)
		srv, url, err := f.listen(tr.wrap("shard", s.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.shardSrvs = append(f.shardSrvs, srv)
		f.shardURLs = append(f.shardURLs, url)
	}
	rt, err := router.New(router.Config{Backends: f.shardURLs})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	if f.routerSrv, f.url, err = f.listen(tr.wrap("router", rt.Handler())); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// listen serves h on a fresh loopback listener.
func (f *fleet) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			f.serveErrs <- err
		}
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// close drains the router tier, then the shards, and waits for every
// serving goroutine to exit.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if f.routerSrv != nil {
		errs = append(errs, f.routerSrv.Shutdown(ctx))
	}
	if f.router != nil {
		errs = append(errs, f.router.Shutdown(ctx))
	}
	for _, srv := range f.shardSrvs {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for _, s := range f.shards {
		errs = append(errs, s.Shutdown(ctx))
	}
	f.served.Wait()
	close(f.serveErrs)
	for err := range f.serveErrs {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// counter sums a server counter over the shards.
func (f *fleet) counter(name string) int64 {
	var n int64
	for _, r := range f.regs {
		n += r.VolatileCounter(name).Value()
	}
	return n
}

// prepare primes every hot identity through the router and trains the
// approx apps' surrogate fits on every shard, then verifies the fits are
// active: after prepare, hot requests are response-cache hits and approx
// requests are answered by the surrogate.
func (f *fleet) prepare(c *http.Client, spec *loadSpec) error {
	for _, body := range spec.hotIdentities() {
		if _, err := postOK(c, f.url, body, "prime"); err != nil {
			return fmt.Errorf("prime hot identity: %w", err)
		}
	}
	warm := spec.warmBodies()
	for _, url := range f.shardURLs {
		err := forEachParallel(len(warm), func(i int) error {
			_, err := postOK(c, url, warm[i], "warm")
			return err
		})
		if err != nil {
			return fmt.Errorf("warm surrogate: %w", err)
		}
	}
	for i, s := range f.shards {
		for _, key := range spec.surrogateKeys {
			if s.SurrogateStore().FitFor(key) == nil {
				return fmt.Errorf("shard %d: surrogate fit for %s refused: %s", i, key.App, s.SurrogateStore().Reason(key))
			}
		}
	}
	return nil
}

// forEachParallel runs fn over [0, n) on workers() goroutines and
// returns the first error.
func forEachParallel(n int, fn func(int) error) error {
	errs := make([]error, n)
	experiment.RunIndexed(context.Background(), workers(), n, func(i int) { errs[i] = fn(i) })
	return errors.Join(errs...)
}

// newClient returns a client holding at most workers() connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers(),
			MaxIdleConnsPerHost: workers(),
			DisableCompression:  true,
		},
	}
}

// postOK posts a run body and returns the response body, failing on any
// status but 200.
func postOK(c *http.Client, base string, body []byte, client string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+traffic.PathRun, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(traffic.HeaderClient, client)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// serveDirect answers one run body on a shard's handler without a
// socket.
func serveDirect(h http.Handler, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, traffic.PathRun, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}
