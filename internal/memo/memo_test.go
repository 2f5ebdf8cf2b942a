package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// op is one step of a TestCache script.
type op struct {
	key int
	// fail makes the computation return errBoom.
	fail bool
	// hold starts the key's computation in the background and leaves it
	// running; release lets it finish and waits for its Do to return.
	hold, release bool
	// want is the Source the (non-hold) Do must report; evicted the
	// entries its store must evict.
	want    Source
	evicted int
}

// TestCache pins the LRU bound, its order and eviction count, capacity 0,
// that errors are never stored and that in-flight keys are never evicted.
func TestCache(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		ops      []op
		want     Stats
	}{
		{
			name:     "lru order and eviction",
			capacity: 2,
			ops: []op{
				{key: 1, want: Computed},
				{key: 2, want: Computed},
				{key: 1, want: Hit}, // 2 is now the least recently used
				{key: 3, want: Computed, evicted: 1},
				{key: 1, want: Hit},
				{key: 2, want: Computed, evicted: 1}, // 2 was evicted; 3 goes now
				{key: 1, want: Hit},
			},
			want: Stats{Hits: 3, Misses: 4, Evictions: 2, Entries: 2, Capacity: 2},
		},
		{
			name:     "capacity zero stores nothing",
			capacity: 0,
			ops: []op{
				{key: 1, want: Computed},
				{key: 1, want: Computed},
			},
			want: Stats{Misses: 2},
		},
		{
			name:     "errors are not stored",
			capacity: 2,
			ops: []op{
				{key: 1, fail: true, want: Computed},
				{key: 1, want: Computed},
				{key: 1, want: Hit},
			},
			want: Stats{Hits: 1, Misses: 2, Entries: 1, Capacity: 2},
		},
		{
			name:     "in-flight entries are not evicted",
			capacity: 1,
			ops: []op{
				{key: 100, hold: true},
				{key: 1, want: Computed},
				{key: 2, want: Computed, evicted: 1},
				{key: 3, want: Computed, evicted: 1},
				{key: 100, release: true, evicted: 1}, // stores after the churn
				{key: 100, want: Hit},
			},
			want: Stats{Hits: 1, Misses: 4, Evictions: 3, Entries: 1, Capacity: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			c := New[int, int](ctx, tc.capacity)
			held := map[int]chan struct{}{}
			results := map[int]chan Result{}
			for i, o := range tc.ops {
				compute := func(context.Context) (int, error) {
					if o.fail {
						return 0, errBoom
					}
					return o.key * 10, nil
				}
				switch {
				case o.hold:
					gate := make(chan struct{})
					held[o.key], results[o.key] = gate, make(chan Result, 1)
					go func(key int, res chan<- Result) {
						_, r, _ := c.Do(ctx, key, func(context.Context) (int, error) {
							<-gate
							return key * 10, nil
						})
						res <- r
					}(o.key, results[o.key])
					waitFor(t, func() bool { return c.Waiters(o.key) == 1 })
					continue
				case o.release:
					close(held[o.key])
					if r := <-results[o.key]; r.Source != Computed || r.Evicted != o.evicted {
						t.Errorf("op %d: held %d finished with %+v, want Computed evicting %d", i, o.key, r, o.evicted)
					}
					continue
				}
				v, r, err := c.Do(ctx, o.key, compute)
				if o.fail != errors.Is(err, errBoom) {
					t.Fatalf("op %d: err = %v, fail = %v", i, err, o.fail)
				}
				if r.Source != o.want || r.Evicted != o.evicted {
					t.Errorf("op %d: key %d got %+v, want source %d evicting %d", i, o.key, r, o.want, o.evicted)
				}
				if err == nil && v != o.key*10 {
					t.Errorf("op %d: key %d value %d", i, o.key, v)
				}
			}
			if got := c.Stats(); got != tc.want {
				t.Errorf("stats %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestCacheSingleFlight has many goroutines ask for one key at once, with
// and without an LRU: the value is computed exactly once and every caller
// gets it. Run under -race.
func TestCacheSingleFlight(t *testing.T) {
	const callers = 16
	for _, capacity := range []int{0, 4} {
		c := New[string, int](context.Background(), capacity)
		var computes atomic.Int32
		gate := make(chan struct{})
		var wg sync.WaitGroup
		var reporters atomic.Int32
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, r, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
					computes.Add(1)
					<-gate
					return 7, nil
				})
				if err != nil || v != 7 {
					t.Errorf("capacity %d: got %d, %v", capacity, v, err)
				}
				if r.Reporter {
					reporters.Add(1)
				}
			}()
		}
		waitFor(t, func() bool { return c.Waiters("k") == callers })
		close(gate)
		wg.Wait()
		if n := computes.Load(); n != 1 {
			t.Errorf("capacity %d: computed %d times, want 1", capacity, n)
		}
		if n := reporters.Load(); n != 1 {
			t.Errorf("capacity %d: %d callers reported the store, want 1", capacity, n)
		}
		if s := c.Stats(); s.Misses != 1 || s.Hits != callers-1 {
			t.Errorf("capacity %d: stats %+v, want 1 miss and %d hits", capacity, s, callers-1)
		}
	}
}

// TestCacheLeaderCancel is the regression test for the run memo, whose
// first caller used to compute on its own context: a caller that joined
// with a live context must get the value even though the caller that
// started the computation is cancelled mid-run. The computation, like
// the memo's simulation, honours the context it is given.
func TestCacheLeaderCancel(t *testing.T) {
	c := New[string, int](context.Background(), 4)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	compute := func(ctx context.Context) (int, error) {
		<-leaderCtx.Done()
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 42, nil
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", compute)
		leaderErr <- err
	}()
	waitFor(t, func() bool { return c.Waiters("k") == 1 })
	joined := make(chan error, 1)
	var got int
	go func() {
		v, _, err := c.Do(context.Background(), "k", compute)
		got = v
		joined <- err
	}()
	waitFor(t, func() bool { return c.Waiters("k") == 2 })
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled leader got %v, want context.Canceled", err)
	}
	if err := <-joined; err != nil || got != 42 {
		t.Fatalf("live waiter got %d, %v; want 42 after the leader was cancelled", got, err)
	}
	if _, r, _ := c.Do(context.Background(), "k", compute); r.Source != Hit {
		t.Errorf("value not stored: %+v", r)
	}
}

// TestCacheLastWaiterCancels proves the flight context is cancelled once
// every caller has left, and that the key then starts afresh.
func TestCacheLastWaiterCancels(t *testing.T) {
	c := New[string, int](context.Background(), 4)
	cancelled := make(chan struct{})
	compute := func(ctx context.Context) (int, error) {
		<-ctx.Done()
		close(cancelled)
		return 0, ctx.Err()
	}
	var cancels []context.CancelFunc
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		go func() {
			_, _, err := c.Do(ctx, "k", compute)
			errs <- err
		}()
		waitFor(t, func() bool { return c.Waiters("k") == i+1 })
	}
	cancels[0]()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Errorf("first caller got %v", err)
	}
	select {
	case <-cancelled:
		t.Fatal("flight cancelled while a caller still waited")
	default:
	}
	cancels[1]()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Errorf("second caller got %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("flight context not cancelled after the last caller left")
	}
	v, r, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 5, nil })
	if err != nil || v != 5 || r.Source != Computed {
		t.Errorf("after abandonment got %d, %+v, %v; want a fresh computation", v, r, err)
	}
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
