package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmppower"
	"cmppower/internal/identity"
	"cmppower/internal/server"
	"cmppower/internal/surrogate"
	"cmppower/internal/traffic"
)

// The three request classes, named after the traffic clients that send
// them.
const (
	classHot    = "hot"    // repeats of primed identities: response-cache hits
	classCold   = "cold"   // a fresh seed per request: a full simulation each
	classApprox = "approx" // surrogate-mode queries inside a warmed fit
)

var classes = []string{classHot, classCold, classApprox}

// Surrogate warm-up grid: every approx app is run exactly at each approx
// core count on these frequencies and seeds, which is enough for its fit
// to activate; approx queries must stay inside this frequency span.
var (
	warmMHz   = []float64{1760, 2400, 3200}
	warmSeeds = []uint64{1, 2}
)

// loadSpec is one traffic file: the traffic-language clients plus the
// size of the batches the benchmark plays them in.
type loadSpec struct {
	// BatchRequests is how many requests one traffic batch sends.
	BatchRequests int `json:"batch_requests"`
	// Clients are traffic-language clients named hot, cold and approx.
	Clients []traffic.ClientSpec `json:"clients"`

	// surrogateKeys are the approx apps' fit keys on the shards' rig.
	surrogateKeys []surrogate.Key
}

// loadLoadSpec reads a traffic file and binds it to the workload's chip.
func loadLoadSpec(path string, chip *cmppower.ChipScenario) (*loadSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s loadSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.BatchRequests < 1 {
		return nil, fmt.Errorf("%s: batch_requests must be positive", path)
	}
	if len(s.Clients) != len(classes) {
		return nil, fmt.Errorf("%s: want clients %v", path, classes)
	}
	for _, name := range classes {
		c := s.client(name)
		if c == nil || len(c.Requests) != 1 {
			return nil, fmt.Errorf("%s: client %q needs one template", path, name)
		}
		c.Requests[0].Chip = chip
	}
	approx := s.client(classApprox).Requests[0]
	for _, mhz := range approx.Freqs {
		if mhz < warmMHz[0] || mhz > warmMHz[len(warmMHz)-1] {
			return nil, fmt.Errorf("%s: approx frequency %g MHz outside the warmed span", path, mhz)
		}
	}
	// The shards build their rig from the request's chip and scale; an
	// identical local rig yields the same surrogate keys.
	rig, err := cmppower.NewExperimentFromScenario(chip, scaleOf(approx))
	if err != nil {
		return nil, err
	}
	for _, app := range approx.Apps {
		s.surrogateKeys = append(s.surrogateKeys, rig.SurrogateKey(app))
	}
	return &s, s.validate()
}

// validate compiles a batch so a malformed file fails before anything
// is measured.
func (s *loadSpec) validate() error {
	_, err := s.compileBatch(1, "validate")
	return err
}

func (s *loadSpec) client(name string) *traffic.ClientSpec {
	for i := range s.Clients {
		if s.Clients[i].Name == name {
			return &s.Clients[i]
		}
	}
	return nil
}

// compileRPS is the rate a batch's schedule is compiled at. The sender
// ignores the arrival times, so it only sets how long a schedule must
// be to hold a batch.
const compileRPS = 1000

// spec is the traffic-language spec a batch is drawn from: long enough
// that its Poisson arrivals outnumber the batch.
func (s *loadSpec) spec(seed uint64) *traffic.Spec {
	seconds := 1.5*float64(s.BatchRequests)/compileRPS + 1
	return &traffic.Spec{Seed: seed, RateRPS: compileRPS, DurationSec: seconds, Clients: s.Clients}
}

// scaleOf is a template's workload scale as the server resolves it.
func scaleOf(t traffic.TemplateSpec) float64 {
	if t.Scale > 0 {
		return t.Scale
	}
	return 0.1
}

// hotIdentities is every distinct request the hot template can draw.
func (s *loadSpec) hotIdentities() [][]byte {
	t := s.client(classHot).Requests[0]
	var out [][]byte
	for _, app := range t.Apps {
		for _, n := range t.Cores {
			out = append(out, mustJSON(&server.RunRequest{App: app, N: n, Scale: t.Scale, Chip: t.Chip}))
		}
	}
	return out
}

// warmBodies is the exact-mode grid that trains the approx apps' fits.
func (s *loadSpec) warmBodies() [][]byte {
	t := s.client(classApprox).Requests[0]
	var out [][]byte
	for _, app := range t.Apps {
		for _, n := range t.Cores {
			for _, mhz := range warmMHz {
				for _, seed := range warmSeeds {
					out = append(out, mustJSON(&server.RunRequest{
						App: app, N: n, Scale: t.Scale, Seed: seed, FreqMHz: mhz, Chip: t.Chip,
					}))
				}
			}
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data structs always marshal
	}
	return b
}

// request is one prepared request of a batch.
type request struct {
	class string
	id    string // sent as the traffic client header; spans correlate on it
	body  []byte
}

// compileBatch compiles one batch: the first BatchRequests arrivals of
// a schedule drawn from seed, in arrival order, with approx arrivals
// turned into surrogate-mode bodies (the traffic language has no mode
// field, and the router forwards the body, not the opt-in header).
func (s *loadSpec) compileBatch(seed uint64, tag string) ([]request, error) {
	sched, err := traffic.Compile(s.spec(seed))
	if err != nil {
		return nil, err
	}
	if len(sched.Arrivals) < s.BatchRequests {
		return nil, fmt.Errorf("schedule holds %d arrivals, a batch needs %d", len(sched.Arrivals), s.BatchRequests)
	}
	out := make([]request, s.BatchRequests)
	for i, a := range sched.Arrivals[:s.BatchRequests] {
		body := []byte(a.Body)
		if a.Client == classApprox {
			var rr server.RunRequest
			if err := json.Unmarshal(body, &rr); err != nil {
				return nil, err
			}
			rr.Mode = server.ModeSurrogate
			body = mustJSON(&rr)
		}
		out[i] = request{
			class: a.Client,
			id:    a.Client + "." + tag + "." + strconv.Itoa(i),
			body:  body,
		}
	}
	return out, nil
}

// batchSeed derives a batch's schedule seed from the input seed, so
// every batch draws its own arrivals and cold-request seeds.
func batchSeed(seed uint64, batch int) uint64 { return identity.Mix(seed, uint64(batch)) }

// outcome is one request's fate.
type outcome struct {
	req    *request
	sent   time.Duration // offsets from the batch start
	done   time.Duration
	status int // 0 when the request failed without a response
	source string
	bound  string
	body   []byte
}

// ok reports a 200 answer.
func (o *outcome) ok() bool { return o.status == http.StatusOK }

// play sends reqs through c to base closed-loop: workers() connections
// each send their next request as soon as their last is answered, so
// the fleet is never idle while a batch plays.
func play(c *http.Client, base string, reqs []request, tr *tracer) []outcome {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				outs[i] = send(c, base, &reqs[i], start, tr)
			}
		}()
	}
	wg.Wait()
	return outs
}

// send posts one request and records its outcome.
func send(c *http.Client, base string, r *request, start time.Time, tr *tracer) (o outcome) {
	o = outcome{req: r, sent: time.Since(start)}
	sp := tr.start("request", r.id, 0)
	defer func() {
		o.done = time.Since(start)
		sp.end()
	}()
	req, err := http.NewRequest(http.MethodPost, base+traffic.PathRun, bytes.NewReader(r.body))
	if err != nil {
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(traffic.HeaderClient, r.id)
	resp, err := c.Do(req)
	if err != nil {
		return o
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return o
	}
	o.status = resp.StatusCode
	o.source = resp.Header.Get(server.HeaderSource)
	o.bound = resp.Header.Get(server.HeaderBound)
	o.body = b
	return o
}

// batchStats summarizes one traffic batch.
type batchStats struct {
	seconds  float64
	p50, p99 map[string]float64 // ms per class, over answered requests
	good     int
	rejected int
}

// summarize computes a batch's latency percentiles per class and counts
// its good (200) and refused (429) answers.
func summarize(outs []outcome, seconds float64) batchStats {
	st := batchStats{seconds: seconds, p50: map[string]float64{}, p99: map[string]float64{}}
	lat := map[string][]float64{}
	for i := range outs {
		o := &outs[i]
		switch {
		case o.ok():
			st.good++
			lat[o.req.class] = append(lat[o.req.class], ms(o.done-o.sent))
		case o.status == http.StatusTooManyRequests:
			st.rejected++
		}
	}
	for _, c := range classes {
		st.p50[c] = quantile(lat[c], 0.5)
		st.p99[c] = quantile(lat[c], 0.99)
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
