package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"

	"cmppower/internal/traffic"
)

// span is one timed interval at a layer boundary. Spans of one request
// share its key (the request id the sender puts in the traffic client
// header, which the router forwards to the shard).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// byKey maps name+key to the latest span of that name for a key, so
	// a handler span finds the span of the hop that sent its request.
	byKey map[string]int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), byKey: map[string]int{}} }

// openSpan is a started span; end closes it.
type openSpan struct {
	t   *tracer
	idx int
}

// start opens a span. A zero parent makes it a root.
func (t *tracer) start(name, key string, parent int) *openSpan {
	if t == nil {
		return nil
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: now})
	if key != "" {
		t.byKey[name+"\x00"+key] = id
	}
	return &openSpan{t: t, idx: id - 1}
}

// parentOf returns the latest span named name for key, or 0.
func (t *tracer) parentOf(name, key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[name+"\x00"+key]
}

func (s *openSpan) end() {
	if s == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.idx].End = now
	s.t.mu.Unlock()
}

// id is the span's id, 0 for a nil span.
func (s *openSpan) id() int {
	if s == nil {
		return 0
	}
	return s.idx + 1
}

// hopParent names the span of the hop in front of each handler.
var hopParent = map[string]string{"router": "request", "shard": "router"}

// wrap records a span around every request h serves, parented on the
// previous hop's span for the same request.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(traffic.HeaderClient)
		sp := t.start(name, key, t.parentOf(hopParent[name], key))
		defer sp.end()
		h.ServeHTTP(w, r)
	})
}

// total sums the durations of the closed spans named name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
