package experiment

import (
	"context"
	"testing"

	"cmppower/internal/obs"
)

// TestEnableMemoBounded pins the capacity plumbing on the rig surface.
func TestEnableMemoBounded(t *testing.T) {
	r := &Rig{}
	r.EnableMemoBounded(7)
	if got := r.MemoStats().Capacity; got != 7 {
		t.Errorf("capacity %d, want 7", got)
	}
	r2 := &Rig{}
	r2.EnableMemo()
	if got := r2.MemoStats().Capacity; got != DefaultMemoCapacity {
		t.Errorf("default capacity %d, want %d", got, DefaultMemoCapacity)
	}
	r3 := &Rig{}
	r3.EnableMemoBounded(0)
	if got := r3.MemoStats().Capacity; got != DefaultMemoCapacity {
		t.Errorf("zero capacity resolves to %d, want %d", got, DefaultMemoCapacity)
	}
}

// TestMemoRunPublishesMetrics pins the registry mirror of the memo's
// traffic: misses per computation, hits per reuse, and the volatile
// eviction counter and entry gauge.
func TestMemoRunPublishesMetrics(t *testing.T) {
	r := &Rig{Obs: obs.NewRegistry()}
	r.EnableMemoBounded(1)
	run := func(context.Context) (*Measurement, error) { return &Measurement{App: "A"}, nil }
	for _, n := range []int{1, 2, 2} {
		if _, err := r.memoRun(context.Background(), memoKey{app: "A", n: n}, run); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]int64{"memo_misses_total": 2, "memo_hits_total": 1, "memo_evictions_total": 1} {
		if got := r.Obs.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := r.Obs.Gauge("memo_entries").Value(); got != 1 {
		t.Errorf("memo_entries = %g, want 1", got)
	}
	if s := r.MemoStats(); s.Hits != 1 || s.Misses != 2 || s.Evictions != 1 || s.Entries != 1 {
		t.Errorf("MemoStats %+v", s)
	}
}
