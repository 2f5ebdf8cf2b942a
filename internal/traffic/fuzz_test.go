package traffic

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmppower/internal/scenario"
)

// fuzzMaxArrivals bounds the expected schedule length of the specs the
// fuzz targets compile. Compile is linear in the arrival count, so a long
// valid spec costs throughput and says nothing new about determinism.
const fuzzMaxArrivals = 5000

// seedSpecs loads the spec seeds under testdata/specs: a copy of the
// example spec and copies of the benchmark's traffic files. A benchmark
// file carries only the client list (the benchmark sets the rate and the
// horizon per batch, and binds the workload's chip, copied under
// testdata/chips), so each raw file is returned alongside a complete
// spec built from it.
func seedSpecs(f *testing.F) (raw [][]byte, specs []*Spec) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "specs", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed specs: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		raw = append(raw, b)
		var s Spec
		if err := json.Unmarshal(b, &s); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		if s.RateRPS == 0 {
			s.Seed, s.RateRPS, s.DurationSec = 1, 20, 2
			workload := strings.TrimPrefix(strings.TrimSuffix(filepath.Base(p), ".json"), "perfbench-")
			if chip, err := scenario.LoadFile(filepath.Join("testdata", "chips", workload+".json")); err == nil {
				for i := range s.Clients {
					for j := range s.Clients[i].Requests {
						s.Clients[i].Requests[j].Chip = chip
					}
				}
			}
		}
		if err := s.Validate(); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		specs = append(specs, &s)
	}
	return raw, specs
}

// FuzzTrafficSpec: parsing arbitrary bytes never panics, and a spec that
// parses and validates compiles to the same schedule every time.
func FuzzTrafficSpec(f *testing.F) {
	raw, specs := seedSpecs(f)
	for _, b := range raw {
		f.Add(b)
	}
	for _, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("parsed spec fails revalidation: %v", err)
		}
		if spec.RateRPS*spec.DurationSec > fuzzMaxArrivals {
			return
		}
		a, err := Compile(spec)
		if err != nil {
			t.Fatalf("valid spec does not compile: %v", err)
		}
		b, err := Compile(spec)
		if err != nil {
			t.Fatalf("second compile failed: %v", err)
		}
		if a.Digest() != b.Digest() {
			t.Fatalf("compile is not deterministic: %s vs %s", a.Digest(), b.Digest())
		}
	})
}

// FuzzTrafficTrace: a trace that parses survives a WriteCSV round trip
// with its digest intact. The seeds are the seed specs' schedules, cut
// to a few dozen arrivals: the fuzzer minimizes every input that finds
// new coverage, and minimizing a long trace takes minutes.
func FuzzTrafficTrace(f *testing.F) {
	_, specs := seedSpecs(f)
	for _, s := range specs {
		short := *s
		short.DurationSec = 24 / s.RateRPS
		sched, err := Compile(&short)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sched.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := first.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		second, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("written trace does not parse: %v", err)
		}
		if first.Digest() != second.Digest() {
			t.Fatalf("round trip changed the digest: %s vs %s", first.Digest(), second.Digest())
		}
	})
}
