package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// specJSON is the three-client exemplar used across the tests.
const specJSON = `{
  "seed": 42,
  "rate_rps": 200,
  "duration_sec": 2,
  "clients": [
    {
      "name": "dash",
      "rate_fraction": 0.5,
      "class": "interactive",
      "arrival": {"process": "poisson"},
      "requests": [
        {"endpoint": "run", "apps": ["FFT", "LU"], "cores": [2, 4]}
      ]
    },
    {
      "name": "nightly",
      "rate_fraction": 0.3,
      "class": "batch",
      "arrival": {"process": "gamma", "cv": 2},
      "requests": [
        {"endpoint": "run", "apps": ["Ocean"], "vary_seed": true, "weight": 3},
        {"endpoint": "sweep", "apps": ["Radix"], "scenarios": ["I"]}
      ]
    },
    {
      "name": "frontier",
      "rate_fraction": 0.2,
      "class": "sweep",
      "arrival": {"process": "weibull", "shape": 1.5},
      "requests": [
        {"endpoint": "explore", "apps": ["Barnes"], "scale": 0.1}
      ]
    }
  ]
}`

func parseTestSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := ParseSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCompileDeterministic: the whole contract — same spec, same seed,
// byte-identical schedule and byte-identical plan report across
// independent compilations.
func TestCompileDeterministic(t *testing.T) {
	spec := parseTestSpec(t)
	s1, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Compile(parseTestSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(s1)
	b2, _ := json.Marshal(s2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same spec compiled to different schedules")
	}
	r1, _ := json.Marshal(s1.Report())
	r2, _ := json.Marshal(s2.Report())
	if !bytes.Equal(r1, r2) {
		t.Fatal("same schedule produced different plan reports")
	}
	if s1.Digest() != s2.Digest() {
		t.Fatal("digests differ for identical schedules")
	}
}

// TestCompileSeedSensitivity: a different seed must actually change the
// schedule (determinism that never varies is a constant, not a stream).
func TestCompileSeedSensitivity(t *testing.T) {
	a := parseTestSpec(t)
	b := parseTestSpec(t)
	b.Seed = 43
	s1, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Digest() == s2.Digest() {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestCompileShape: arrivals are time-ordered, inside the horizon,
// correctly tagged, and each client's scheduled rate lands near its
// target fraction.
func TestCompileShape(t *testing.T) {
	spec := parseTestSpec(t)
	s, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Arrivals) == 0 {
		t.Fatal("empty schedule")
	}
	horizon := int64(spec.DurationSec * 1e6)
	classOf := map[string]string{"dash": ClassInteractive, "nightly": ClassBatch, "frontier": ClassSweep}
	var last int64
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		if a.AtMicros < last {
			t.Fatalf("arrival %d out of order: %d after %d", i, a.AtMicros, last)
		}
		last = a.AtMicros
		if a.AtMicros >= horizon {
			t.Fatalf("arrival %d at %dus beyond the %dus horizon", i, a.AtMicros, horizon)
		}
		if classOf[a.Client] != a.Class {
			t.Fatalf("arrival %d client %q class %q", i, a.Client, a.Class)
		}
		if !json.Valid(a.Body) {
			t.Fatalf("arrival %d body is not JSON: %s", i, a.Body)
		}
	}
	rep := s.Report()
	targets := spec.PerClientTarget()
	for _, cp := range rep.Clients {
		want := targets[cp.Client]
		if math.Abs(cp.ScheduledRPS-want) > 0.5*want {
			t.Errorf("client %s scheduled %.1f rps, target %.1f", cp.Client, cp.ScheduledRPS, want)
		}
		if cp.GapP50Us <= 0 || cp.GapP99Us < cp.GapP50Us {
			t.Errorf("client %s gap percentiles p50=%d p99=%d", cp.Client, cp.GapP50Us, cp.GapP99Us)
		}
	}
}

// TestVarySeedDistinct: vary_seed gives every generated request a
// distinct, never-default workload seed.
func TestVarySeedDistinct(t *testing.T) {
	spec := parseTestSpec(t)
	s, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		if a.Client != "nightly" || a.Endpoint != PathRun {
			continue
		}
		var body struct {
			Seed uint64 `json:"seed"`
		}
		if err := json.Unmarshal(a.Body, &body); err != nil {
			t.Fatal(err)
		}
		if body.Seed < 2 {
			t.Fatalf("vary_seed produced reserved seed %d", body.Seed)
		}
		if seen[body.Seed] {
			t.Fatalf("vary_seed repeated seed %d", body.Seed)
		}
		seen[body.Seed] = true
	}
	if len(seen) < 2 {
		t.Fatalf("only %d varied seeds generated", len(seen))
	}
}

// TestFreqChoiceSet: a run template's freqs_mhz set is drawn per
// request (every body carries a member of the set, every member shows
// up), and templates without the field omit freq_mhz entirely — which
// is what keeps pre-existing specs' plan digests byte-stable.
func TestFreqChoiceSet(t *testing.T) {
	spec := parseTestSpec(t)
	freqs := []float64{3200, 2400, 1760}
	spec.Clients[0].Requests[0].Freqs = freqs
	s, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[float64]bool, len(freqs))
	for _, f := range freqs {
		allowed[f] = true
	}
	drawn := make(map[float64]int)
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		if a.Endpoint != PathRun {
			continue
		}
		var body struct {
			FreqMHz *float64 `json:"freq_mhz"`
		}
		if err := json.Unmarshal(a.Body, &body); err != nil {
			t.Fatal(err)
		}
		switch a.Client {
		case "dash":
			if body.FreqMHz == nil {
				t.Fatalf("dash body missing freq_mhz: %s", a.Body)
			}
			if !allowed[*body.FreqMHz] {
				t.Fatalf("dash drew freq %g outside the choice set", *body.FreqMHz)
			}
			drawn[*body.FreqMHz]++
		case "nightly":
			if body.FreqMHz != nil {
				t.Fatalf("nightly (no freqs_mhz) body carries freq_mhz: %s", a.Body)
			}
		}
	}
	for _, f := range freqs {
		if drawn[f] == 0 {
			t.Errorf("freq %g MHz never drawn across %d arrivals", f, len(s.Arrivals))
		}
	}
}

// TestArrivalProcessMeans: every process's sampler averages to the
// requested mean (law of large numbers over a deterministic stream).
func TestArrivalProcessMeans(t *testing.T) {
	const mean = 0.25
	for _, proc := range []ArrivalSpec{
		{Process: "poisson"},
		{Process: "fixed"},
		{Process: "gamma", CV: 2},
		{Process: "gamma", CV: 0.5},
		{Process: "weibull", Shape: 1.5},
		{Process: "weibull", Shape: 0.8},
	} {
		s := newStream(7, "mean:"+proc.Process)
		gap := interArrival(proc, mean, s)
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			g := gap()
			if g < 0 {
				t.Fatalf("%s: negative gap %g", proc.Process, g)
			}
			sum += g
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean {
			t.Errorf("%s cv=%g shape=%g: mean gap %g, want %g +- 5%%", proc.Process, proc.CV, proc.Shape, got, mean)
		}
	}
}

// TestCompileAtParameterBounds: specs at the edges of the accepted
// ranges compile to finite schedules of plausible length, and a rate so
// low that the gaps overflow to +Inf yields no arrivals instead of
// wrapping through the integer horizon check.
func TestCompileAtParameterBounds(t *testing.T) {
	for _, tc := range []struct {
		rate    float64
		arrival string
	}{
		{10, `{"process":"gamma","cv":0.01}`},
		{10, `{"process":"gamma","cv":10}`},
		{10, `{"process":"weibull","shape":0.1}`},
		{10, `{"process":"weibull","shape":100}`},
		{1e-310, `{"process":"fixed"}`},
		{1e-310, `{"process":"weibull","shape":0.1}`},
	} {
		spec, err := ParseSpec(strings.NewReader(fmt.Sprintf(
			`{"seed":3,"rate_rps":%g,"duration_sec":20,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":%s,"requests":[{"endpoint":"explore"}]}]}`,
			tc.rate, tc.arrival)))
		if err != nil {
			t.Fatalf("%s: %v", tc.arrival, err)
		}
		s, err := Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.arrival, err)
		}
		if limit := 20 * tc.rate * 10; float64(len(s.Arrivals)) > limit {
			t.Errorf("rate %g %s: %d arrivals, expected about %g", tc.rate, tc.arrival, len(s.Arrivals), 20*tc.rate)
		}
		for _, a := range s.Arrivals {
			if a.AtMicros < 0 || a.AtMicros >= 20e6 {
				t.Fatalf("rate %g %s: arrival at %d us outside the horizon", tc.rate, tc.arrival, a.AtMicros)
			}
		}
	}
}

// TestSpecParseErrors pins the validation error paths.
func TestSpecParseErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"bad json", `{`, "parse spec"},
		{"unknown field", `{"seed":1,"rate_rps":10,"duration_sec":1,"bogus":1,"clients":[]}`, "parse spec"},
		{"no rate", `{"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"explore"}]}]}`, "rate_rps"},
		{"no duration", `{"rate_rps":10,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"explore"}]}]}`, "duration_sec"},
		{"no clients", `{"rate_rps":10,"duration_sec":1,"clients":[]}`, "no clients"},
		{"fraction sum", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":0.5,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"explore"}]}]}`, "fractions sum"},
		{"dup client", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":0.5,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"explore"}]},{"name":"a","rate_fraction":0.5,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"explore"}]}]}`, "duplicate client"},
		{"bad class", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"gold","arrival":{"process":"poisson"},"requests":[{"endpoint":"explore"}]}]}`, "class"},
		{"bad process", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"pareto"},"requests":[{"endpoint":"explore"}]}]}`, "arrival process"},
		{"no templates", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[]}]}`, "no request templates"},
		{"bad endpoint", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"teleport"}]}]}`, "endpoint"},
		{"run needs apps", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"run"}]}]}`, "needs apps"},
		{"unknown app", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"run","apps":["NotAnApp"]}]}]}`, "NotAnApp"},
		{"bad cores", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"run","apps":["FFT"],"cores":[32]}]}]}`, "core count"},
		{"bad scenario", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"sweep","scenarios":["III"]}]}]}`, "scenario"},
		{"scenario on run", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"run","apps":["FFT"],"scenarios":["I"]}]}]}`, "scenarios only apply"},
		{"bad freq", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"run","apps":["FFT"],"freqs_mhz":[0]}]}]}`, "freq"},
		{"long horizon", `{"rate_rps":1e-6,"duration_sec":1e8,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"explore"}]}]}`, "duration_sec"},
		{"too many arrivals", `{"rate_rps":1e6,"duration_sec":10,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"explore"}]}]}`, "arrivals"},
		{"gamma cv huge", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"gamma","cv":1e200},"requests":[{"endpoint":"explore"}]}]}`, "gamma cv"},
		{"gamma cv tiny", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"gamma","cv":1e-200},"requests":[{"endpoint":"explore"}]}]}`, "gamma cv"},
		{"weibull shape tiny", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"weibull","shape":0.001},"requests":[{"endpoint":"explore"}]}]}`, "weibull shape"},
		{"freq on sweep", `{"rate_rps":10,"duration_sec":1,"clients":[{"name":"a","rate_fraction":1,"class":"batch","arrival":{"process":"poisson"},"requests":[{"endpoint":"sweep","freqs_mhz":[2400]}]}]}`, "freqs_mhz only applies"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(strings.NewReader(tc.json))
		if err == nil {
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestTraceRoundTrip: WriteCSV → ParseTrace reproduces the compiled
// schedule arrival for arrival.
func TestTraceRoundTrip(t *testing.T) {
	s, err := Compile(parseTestSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Arrivals) != len(s.Arrivals) {
		t.Fatalf("round trip %d arrivals, want %d", len(back.Arrivals), len(s.Arrivals))
	}
	a, _ := json.Marshal(s.Arrivals)
	b, _ := json.Marshal(back.Arrivals)
	if !bytes.Equal(a, b) {
		t.Fatal("round-tripped arrivals differ")
	}
	if back.Digest() != s.Digest() {
		t.Fatal("round-tripped digest differs")
	}
}

// TestTraceParseErrors pins the trace error paths.
func TestTraceParseErrors(t *testing.T) {
	cases := []struct {
		name, csv, want string
	}{
		{"empty", "", "no arrivals"},
		{"columns", "100,client\n", "columns"},
		{"timestamp", "abc,c,run,{}\n", "timestamp_us"},
		{"order", "200,c,run,{}\n100,c,run,{}\n", "time-ordered"},
		{"client", "100,,run,{}\n", "empty client"},
		{"endpoint", "100,c,teleport,{}\n", "endpoint"},
		{"body", "100,c,run,not-json\n", "valid JSON"},
	}
	for _, tc := range cases {
		_, err := ParseTrace(strings.NewReader(tc.csv))
		if err == nil {
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestTraceHeaderAndClassOptional: the header row and the class column
// are both optional on input.
func TestTraceHeaderAndClassOptional(t *testing.T) {
	s, err := ParseTrace(strings.NewReader(
		"timestamp_us,client,endpoint,body\n" +
			`100,cli,run,"{""app"":""FFT"",""n"":2}"` + "\n" +
			`250,cli,explore,"{}",interactive` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Arrivals) != 2 {
		t.Fatalf("arrivals %d, want 2", len(s.Arrivals))
	}
	if s.Arrivals[0].Class != ClassOther {
		t.Errorf("classless row got %q, want %q", s.Arrivals[0].Class, ClassOther)
	}
	if s.Arrivals[1].Class != ClassInteractive {
		t.Errorf("classed row got %q", s.Arrivals[1].Class)
	}
	if s.Arrivals[1].Endpoint != PathExplore {
		t.Errorf("endpoint %q not normalized", s.Arrivals[1].Endpoint)
	}
}

// TestNormalizeClass pins the closed label space.
func TestNormalizeClass(t *testing.T) {
	for in, want := range map[string]string{
		"interactive": ClassInteractive,
		" Batch ":     ClassBatch,
		"SWEEP":       ClassSweep,
		"":            ClassOther,
		"platinum":    ClassOther,
	} {
		if got := NormalizeClass(in); got != want {
			t.Errorf("NormalizeClass(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTemplateChipPassthrough(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`{
  "seed": 7, "rate_rps": 50, "duration_sec": 1,
  "clients": [{
    "name": "hetero", "rate_fraction": 1, "class": "batch",
    "arrival": {"process": "fixed"},
    "requests": [
      {"endpoint": "run", "apps": ["FFT"],
       "chip": {"name": "small", "chip": {"total_cores": 8}}}
    ]
  }]
}`))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Arrivals) == 0 {
		t.Fatal("empty schedule")
	}
	for _, a := range sched.Arrivals {
		var body struct {
			N    int             `json:"n"`
			Chip json.RawMessage `json:"chip"`
		}
		if err := json.Unmarshal(a.Body, &body); err != nil {
			t.Fatal(err)
		}
		if len(body.Chip) == 0 {
			t.Fatalf("body missing chip: %s", a.Body)
		}
		// Default core choice set clamps to the 8-core chip.
		if body.N < 1 || body.N > 8 {
			t.Errorf("core count %d outside the 8-core chip", body.N)
		}
		// The embedded chip is the normalized document (defaults explicit).
		var chip struct {
			Node string `json:"node"`
			Chip struct {
				TotalCores int `json:"total_cores"`
			} `json:"chip"`
		}
		if err := json.Unmarshal(body.Chip, &chip); err != nil {
			t.Fatal(err)
		}
		if chip.Node != "65nm" || chip.Chip.TotalCores != 8 {
			t.Errorf("chip not normalized in body: %s", body.Chip)
		}
	}
}

func TestTemplateChipValidation(t *testing.T) {
	bad := []string{
		// Invalid chip document.
		`{"seed":1,"rate_rps":10,"duration_sec":1,"clients":[{"name":"c","rate_fraction":1,"class":"batch","arrival":{"process":"fixed"},"requests":[{"endpoint":"run","apps":["FFT"],"chip":{"name":"bad","chip":{"total_cores":999}}}]}]}`,
		// Core count beyond the chip.
		`{"seed":1,"rate_rps":10,"duration_sec":1,"clients":[{"name":"c","rate_fraction":1,"class":"batch","arrival":{"process":"fixed"},"requests":[{"endpoint":"run","apps":["FFT"],"cores":[16],"chip":{"name":"small","chip":{"total_cores":8}}}]}]}`,
	}
	for i, doc := range bad {
		if _, err := ParseSpec(strings.NewReader(doc)); err == nil {
			t.Errorf("case %d: bad chip spec accepted", i)
		}
	}
	// A chip wider than the baseline legalizes larger core counts.
	ok := `{"seed":1,"rate_rps":10,"duration_sec":1,"clients":[{"name":"c","rate_fraction":1,"class":"batch","arrival":{"process":"fixed"},"requests":[{"endpoint":"run","apps":["FFT"],"cores":[32],"chip":{"name":"wide","chip":{"total_cores":32}}}]}]}`
	if _, err := ParseSpec(strings.NewReader(ok)); err != nil {
		t.Errorf("32-core template on 32-core chip rejected: %v", err)
	}
}
