// Package traffic is cmppower's multi-tenant traffic language: a JSON
// spec in which each named client declares its share of an aggregate
// arrival rate, an SLO class, a seeded arrival process, and a weighted
// mix of run/sweep/explore request templates with per-client parameter
// distributions. Compile turns a spec into one merged, deterministic
// arrival schedule — same seed, byte-identical schedule — which the
// load generator plays open-loop against a serve or router instance,
// and which a CSV trace (`timestamp_us,client,endpoint,body`) can stand
// in for verbatim (trace replay).
//
// Determinism is the contract (DESIGN.md §12): a traffic run is a
// reproducible experiment. All randomness flows from the spec seed
// through per-client splitmix64 streams (forked by client name, so
// adding a client never perturbs another's arrivals), and the merged
// order breaks timestamp ties by client name and sequence — no global
// RNG, no map-iteration order, no wall clock.
package traffic

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"cmppower/internal/scenario"
	"cmppower/internal/splash"
)

// SLO classes. Every request the spec generates is tagged with its
// client's class via the HeaderClass header; the server and router
// export per-class latency histograms and 429 counters under these
// label values, with ClassOther collecting untagged or unknown traffic.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
	ClassSweep       = "sweep"
	ClassOther       = "other"
)

// Request-tagging headers: the load generator sets them from the spec,
// the router forwards them to the winning shard, and both tiers label
// their per-class metrics with the class value.
const (
	HeaderClass  = "X-Cmppower-Class"
	HeaderClient = "X-Cmppower-Client"
)

// NormalizeClass maps a wire header value onto a known SLO class label;
// anything unknown (including absent) is ClassOther, so the metric
// label space is closed no matter what clients send.
func NormalizeClass(s string) string {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case ClassInteractive:
		return ClassInteractive
	case ClassBatch:
		return ClassBatch
	case ClassSweep:
		return ClassSweep
	}
	return ClassOther
}

// Spec is the root of a traffic spec file.
type Spec struct {
	// Seed drives every arrival process and parameter distribution; the
	// CLI's -seed flag overrides it.
	Seed uint64 `json:"seed"`
	// RateRPS is the aggregate arrival rate across all clients.
	RateRPS float64 `json:"rate_rps"`
	// DurationSec is the schedule horizon in seconds, at most 1e7; the
	// product RateRPS × DurationSec may not exceed 2^20 arrivals.
	DurationSec float64 `json:"duration_sec"`
	// Clients are the tenants; their rate fractions must sum to 1.
	Clients []ClientSpec `json:"clients"`
}

// ClientSpec is one tenant's traffic declaration.
type ClientSpec struct {
	// Name identifies the client in the schedule, the report, and the
	// HeaderClient header. Names must be unique within a spec.
	Name string `json:"name"`
	// RateFraction is this client's share of Spec.RateRPS, in (0, 1].
	RateFraction float64 `json:"rate_fraction"`
	// Class is the SLO class: interactive, batch, or sweep.
	Class string `json:"class"`
	// Arrival selects and parameterizes the arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Requests is the weighted template mix; one is drawn per arrival.
	Requests []TemplateSpec `json:"requests"`
}

// ArrivalSpec parameterizes one client's arrival process.
type ArrivalSpec struct {
	// Process is poisson, gamma, weibull, or fixed.
	Process string `json:"process"`
	// CV is the gamma process's coefficient of variation (default 1,
	// which degenerates to poisson; >1 bursty, <1 regular), within
	// [0.01, 10].
	CV float64 `json:"cv,omitempty"`
	// Shape is the weibull shape parameter (default 1, which is
	// poisson; <1 heavy-tailed bursts, >1 regular), within [0.1, 100].
	Shape float64 `json:"shape,omitempty"`
}

// TemplateSpec is one request template in a client's mix. Endpoint
// selects the wire shape; the list-valued fields are uniform choices
// drawn per request from the client's stream.
type TemplateSpec struct {
	// Endpoint is run, sweep, or explore (the /v1/ prefix is implied).
	Endpoint string `json:"endpoint"`
	// Weight biases template choice within the client (default 1).
	Weight float64 `json:"weight,omitempty"`
	// Apps is the application choice set (required for run; optional
	// for sweep/explore, where empty means the server's default set).
	Apps []string `json:"apps,omitempty"`
	// Cores is the core-count choice set for run (default {1,2,4,8,16}).
	Cores []int `json:"cores,omitempty"`
	// Freqs is the clock-frequency choice set for run, in MHz (empty
	// means the server's nominal frequency) — the knob that exercises the
	// surrogate's frequency axis under live traffic.
	Freqs []float64 `json:"freqs_mhz,omitempty"`
	// Scenarios is the scenario choice set for sweep (default {I, II}).
	Scenarios []string `json:"scenarios,omitempty"`
	// Scale is the workload scale (0 means the server default).
	Scale float64 `json:"scale,omitempty"`
	// VarySeed gives every generated request a distinct (deterministic)
	// workload seed — the uncached-path switch, like loadgen -vary.
	VarySeed bool `json:"vary_seed,omitempty"`
	// Chip is an optional chip scenario (see internal/scenario) carried in
	// every request body this template generates: the server simulates
	// that chip instead of the implicit baseline. Core counts validate
	// against the chip's total_cores, and the default core choice set is
	// clamped to it.
	Chip *scenario.Scenario `json:"chip,omitempty"`
}

// endpoint paths the spec language can emit.
const (
	PathRun     = "/v1/run"
	PathSweep   = "/v1/sweep"
	PathExplore = "/v1/explore"
)

// normalizeEndpoint resolves "run"/"/v1/run" style names to the wire
// path; empty string means the name is unknown.
func normalizeEndpoint(s string) string {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "run", PathRun:
		return PathRun
	case "sweep", PathSweep:
		return PathSweep
	case "explore", PathExplore:
		return PathExplore
	}
	return ""
}

// ParseSpec strictly decodes and validates one spec document.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("traffic: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Spec bounds. Compile materializes every arrival, so the expected
// schedule length is capped; the horizon cap keeps it exact in integer
// microseconds. The arrival-process parameter ranges keep every gap
// finite and the draws well conditioned: beyond them a gamma or weibull
// process degenerates into floods of zero gaps, NaN gaps, or a sampler
// that never returns.
const (
	maxArrivals    = 1 << 20
	maxDurationSec = 1e7
	minGammaCV     = 0.01
	maxGammaCV     = 10.0
	minWeibull     = 0.1
	maxWeibull     = 100.0
)

// Validate rejects a malformed spec with the first problem found.
func (s *Spec) Validate() error {
	if s.RateRPS <= 0 {
		return fmt.Errorf("traffic: rate_rps %g must be > 0", s.RateRPS)
	}
	if s.DurationSec <= 0 || s.DurationSec > maxDurationSec {
		return fmt.Errorf("traffic: duration_sec %g must be in (0, %g]", s.DurationSec, maxDurationSec)
	}
	if n := s.RateRPS * s.DurationSec; n > maxArrivals {
		return fmt.Errorf("traffic: rate_rps × duration_sec expects %g arrivals, over the %d limit", n, maxArrivals)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("traffic: no clients")
	}
	seen := make(map[string]bool, len(s.Clients))
	var fracSum float64
	for i := range s.Clients {
		c := &s.Clients[i]
		if err := c.validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("traffic: duplicate client %q", c.Name)
		}
		seen[c.Name] = true
		fracSum += c.RateFraction
	}
	if fracSum < 1-1e-9 || fracSum > 1+1e-9 {
		return fmt.Errorf("traffic: client rate fractions sum to %g, want 1", fracSum)
	}
	return nil
}

func (c *ClientSpec) validate() error {
	if strings.TrimSpace(c.Name) == "" {
		return fmt.Errorf("traffic: client with empty name")
	}
	if c.RateFraction <= 0 || c.RateFraction > 1 {
		return fmt.Errorf("traffic: client %q rate_fraction %g outside (0,1]", c.Name, c.RateFraction)
	}
	switch c.Class {
	case ClassInteractive, ClassBatch, ClassSweep:
	default:
		return fmt.Errorf("traffic: client %q class %q (want interactive, batch, or sweep)", c.Name, c.Class)
	}
	if err := c.Arrival.validate(c.Name); err != nil {
		return err
	}
	if len(c.Requests) == 0 {
		return fmt.Errorf("traffic: client %q has no request templates", c.Name)
	}
	var wsum float64
	for i := range c.Requests {
		t := &c.Requests[i]
		if err := t.validate(c.Name); err != nil {
			return err
		}
		wsum += t.weight()
	}
	if wsum <= 0 {
		return fmt.Errorf("traffic: client %q template weights sum to 0", c.Name)
	}
	return nil
}

func (a *ArrivalSpec) validate(client string) error {
	switch a.Process {
	case "poisson", "fixed":
	case "gamma":
		if a.CV != 0 && (a.CV < minGammaCV || a.CV > maxGammaCV) {
			return fmt.Errorf("traffic: client %q gamma cv %g outside [%g,%g] (0 = default 1)", client, a.CV, minGammaCV, maxGammaCV)
		}
	case "weibull":
		if a.Shape != 0 && (a.Shape < minWeibull || a.Shape > maxWeibull) {
			return fmt.Errorf("traffic: client %q weibull shape %g outside [%g,%g] (0 = default 1)", client, a.Shape, minWeibull, maxWeibull)
		}
	default:
		return fmt.Errorf("traffic: client %q arrival process %q (want poisson, gamma, weibull, or fixed)", client, a.Process)
	}
	return nil
}

func (t *TemplateSpec) validate(client string) error {
	path := normalizeEndpoint(t.Endpoint)
	if path == "" {
		return fmt.Errorf("traffic: client %q endpoint %q (want run, sweep, or explore)", client, t.Endpoint)
	}
	if t.Weight < 0 {
		return fmt.Errorf("traffic: client %q template weight %g must be >= 0", client, t.Weight)
	}
	if path == PathRun && len(t.Apps) == 0 {
		return fmt.Errorf("traffic: client %q run template needs apps", client)
	}
	for _, name := range t.Apps {
		if _, err := splash.ByName(name); err != nil {
			return fmt.Errorf("traffic: client %q: %w", client, err)
		}
	}
	maxCores := 16
	if t.Chip != nil {
		// Normalize in place so every generated body carries the canonical
		// document — syntactic variants of the same chip then share the
		// server's response cache.
		t.Chip.Normalize()
		if err := t.Chip.Validate(); err != nil {
			return fmt.Errorf("traffic: client %q chip: %w", client, err)
		}
		maxCores = t.Chip.Chip.TotalCores
	}
	for _, n := range t.Cores {
		if n < 1 || n > maxCores {
			return fmt.Errorf("traffic: client %q core count %d outside [1,%d]", client, n, maxCores)
		}
	}
	for _, mhz := range t.Freqs {
		if mhz <= 0 {
			return fmt.Errorf("traffic: client %q freq %g MHz must be > 0", client, mhz)
		}
	}
	if path != PathRun && len(t.Freqs) > 0 {
		return fmt.Errorf("traffic: client %q: freqs_mhz only applies to run templates", client)
	}
	for _, sc := range t.Scenarios {
		if sc != "I" && sc != "II" {
			return fmt.Errorf("traffic: client %q scenario %q (want I or II)", client, sc)
		}
	}
	if path != PathSweep && len(t.Scenarios) > 0 {
		return fmt.Errorf("traffic: client %q: scenarios only apply to sweep templates", client)
	}
	if t.Scale < 0 || t.Scale > 4 {
		return fmt.Errorf("traffic: client %q scale %g outside [0,4]", client, t.Scale)
	}
	return nil
}

// weight resolves the default template weight.
func (t *TemplateSpec) weight() float64 {
	if t.Weight == 0 {
		return 1
	}
	return t.Weight
}
