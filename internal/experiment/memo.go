package experiment

import (
	"context"
	"fmt"

	"cmppower/internal/dvfs"
	"cmppower/internal/memo"
)

// memoKey is the full identity of one simulated run: two runs with equal
// keys produce bit-identical Measurements, so a cached result can stand
// in for a re-simulation. Everything that feeds the simulator or the
// power/thermal evaluation is part of the key — the application, the
// active and physical core counts, the exact operating point, the
// workload seed and scale, the simulator mode flags, the DTM controller
// configuration, and a digest of the fault-injection configuration.
type memoKey struct {
	app        string
	n          int
	freq       float64
	volt       float64
	seed       uint64
	scale      float64
	totalCores int
	sysDVFS    bool
	prefetch   bool
	dtmOn      bool
	dtm        DTMConfig
	faults     string
	// scenario is the rig's scenario digest: empty for flag-era rigs and
	// baseline-equivalent scenarios (so those share entries), the full
	// content digest otherwise — two different chips can never collide.
	scenario string
}

// memoKeyFor builds the cache key for one run on this rig.
func (r *Rig) memoKeyFor(app string, n int, p dvfs.OperatingPoint, seed uint64) memoKey {
	k := memoKey{
		app: app, n: n, freq: p.Freq, volt: p.Volt,
		seed: seed, scale: r.Scale, totalCores: r.TotalCores,
		sysDVFS: r.ScaleMemoryWithChip, prefetch: r.Prefetch,
		scenario: r.scenarioDigest,
	}
	if r.DTM != nil {
		k.dtmOn, k.dtm = true, *r.DTM
	}
	if r.Faults != nil {
		// Config digest, not schedule digest: the key must be computable
		// before the run. Only ever consulted with injection disabled (see
		// memoizable), where the digest is constant.
		k.faults = fmt.Sprintf("%+v", r.Faults.Config())
	}
	return k
}

// memoizable reports whether runs on this rig are a pure function of
// their memoKey. Active fault injection makes them order-dependent —
// every run advances the injector's streams — so such runs always
// re-simulate.
func (r *Rig) memoizable() bool {
	return r.Faults == nil || !r.Faults.Config().Enabled()
}

// DefaultMemoCapacity bounds EnableMemo's cache. It is sized so that no
// in-repo sweep ever evicts (a full fig3+fig4 campaign touches a few
// hundred distinct keys), keeping the memo hit/miss split deterministic
// across worker counts; the bound exists for long-lived processes — a
// serving process would otherwise grow the cache without limit.
const DefaultMemoCapacity = 8192

// EnableMemo attaches a measurement memo cache to the rig (idempotent),
// bounded at DefaultMemoCapacity entries. Clones made afterwards share
// it, which is how a parallel sweep dedupes the single-core baseline and
// nominal profiling runs that Scenario I and Scenario II repeat. The
// cache holds successful Measurements only; failures are never cached,
// so retries always re-simulate.
func (r *Rig) EnableMemo() { r.EnableMemoBounded(DefaultMemoCapacity) }

// EnableMemoBounded is EnableMemo with an explicit LRU capacity
// (capacity <= 0 means DefaultMemoCapacity). Long-lived processes — the
// HTTP server above all — use a capacity matched to their memory budget;
// least-recently-used completed entries are evicted once the bound is
// reached, and an evicted run simply re-simulates on next request.
func (r *Rig) EnableMemoBounded(capacity int) {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	if r.memo == nil {
		// Runs compute on a flight context of their own: a caller that
		// gives up does not fail the others waiting on the same run.
		r.memo = memo.New[memoKey, *Measurement](context.Background(), capacity)
	}
}

// MemoStats reports the memo cache's traffic.
type MemoStats struct {
	// Hits counts runs served from the cache instead of re-simulated.
	Hits int64
	// Misses counts runs that were simulated and stored.
	Misses int64
	// Evictions counts completed entries dropped by the LRU bound.
	Evictions int64
	// Entries is the number of distinct cached measurements.
	Entries int
	// Capacity is the LRU bound on Entries.
	Capacity int
}

// MemoStats returns the cache counters (zero without EnableMemo).
func (r *Rig) MemoStats() MemoStats {
	if r.memo == nil {
		return MemoStats{}
	}
	s := r.memo.Stats()
	return MemoStats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		Entries: s.Entries, Capacity: s.Capacity}
}

// memoRun returns the measurement for k from the memo, simulating it via
// run on first request; every caller receives its own copy. Traffic is
// mirrored into r.Obs (nil is free): the hit/miss split is deterministic
// across worker counts because misses are exactly the distinct keys
// requested and hits the remainder, regardless of which worker computed
// what — provided the LRU bound never bites (see DefaultMemoCapacity).
// Eviction order depends on completion order across workers, so the
// eviction counter and entry gauge are published volatile.
func (r *Rig) memoRun(ctx context.Context, k memoKey, run func(context.Context) (*Measurement, error)) (*Measurement, error) {
	m, res, err := r.memo.Do(ctx, k, run)
	if res.Source == memo.Computed {
		r.Obs.Counter("memo_misses_total").Add(1)
	} else if err == nil {
		r.Obs.Counter("memo_hits_total").Add(1)
	}
	if res.Reporter {
		if res.Evicted > 0 {
			r.Obs.VolatileCounter("memo_evictions_total").Add(int64(res.Evicted))
		}
		r.Obs.VolatileGauge("memo_entries").Set(float64(res.Entries))
	}
	if err != nil {
		return nil, err
	}
	return m.clone(), nil
}

// clone returns a deep copy of the measurement so cached values can never
// alias a caller's result.
func (m *Measurement) clone() *Measurement {
	c := *m
	if m.DTM != nil {
		dtm := *m.DTM
		c.DTM = &dtm
	}
	return &c
}
