package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"cmppower"
)

// The self-test runs every workload tiny and short, in both modes, and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, and that its output checks pass; then it checks that the
// output checks fire on a corrupted digest or answer.
//
//	cd perfbench && go test .

const (
	tinyScale   = 0.02
	tinySeconds = 2
	tinySeed    = 7
)

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func tiny(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: tinySeed, seconds: tinySeconds, trace: trace, root: "..", out: t.TempDir(), scale: tinyScale}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			o := tiny(t, name, trace)
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%t: correct %t attempted %d failed %d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

func TestCampaignDigestChecksFire(t *testing.T) {
	o := tiny(t, "paper-sweep", false)
	b, err := newBench(o, workloads[o.workload])
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	run1, err := b.paperCampaign(nil)
	if err != nil {
		t.Fatal(err)
	}
	b.checkCampaign(run1, nil)
	if !b.checks.ok() {
		t.Fatalf("clean campaign failed its checks: %v", b.checks.failures)
	}

	// So must crossCheckApp re-run alone on one worker, and a campaign
	// outcome that differs from the re-run must fail the run.
	if err := b.crossCheck(run1); err != nil || !b.checks.ok() {
		t.Fatalf("clean cross-check failed: %v %v", err, b.checks.failures)
	}
	for i, out := range run1.outsI {
		if out.App == crossCheckApp {
			corrupted := *run1
			corrupted.outsI = append([]cmppower.SweepOutcome(nil), run1.outsI...)
			res := *out.I
			base := *res.Baseline
			base.Seconds *= 1 + 1e-12
			res.Baseline = &base
			corrupted.outsI[i].I = &res
			if err := b.crossCheck(&corrupted); err != nil {
				t.Fatal(err)
			}
		}
	}
	if b.checks.ok() {
		t.Fatal("a campaign outcome differing from its cross-check re-run passed")
	}
	b.checks = checks{}

	// Another worker count must reproduce the digest exactly.
	b.o.sweepWorkers = 1
	run2, err := b.paperCampaign(nil)
	if err != nil {
		t.Fatal(err)
	}
	if run2.digest != run1.digest {
		t.Fatalf("digest depends on the worker count: %s vs %s", run2.digest, run1.digest)
	}

	// A repetition whose digest differs must fail the run.
	run2.digest = "corrupted"
	b.checkCampaign(run2, run1)
	if b.checks.ok() {
		t.Fatal("a repetition with a different digest passed")
	}

	// So must a digest that differs from the committed table.
	b.checks = checks{}
	b.digests = map[string]map[string]string{o.workload: {digestKey(o): "corrupted"}}
	b.checkCampaign(run1, nil)
	if b.checks.ok() {
		t.Fatal("a digest differing from the committed table passed")
	}
}

func TestApproxCheckFires(t *testing.T) {
	for _, body := range []string{
		`{"source":"surrogate","prediction":{"seconds":1}}`, // no bound
		`{"source":"surrogate","bound":0.1}`,                // no prediction
		`{"source":"simulation"}`,                           // no measurement
		`{"source":"oracle","bound":0.1}`,
	} {
		o := &outcome{req: &request{class: classApprox}, status: 200, body: []byte(body)}
		if checkApprox(o) == nil {
			t.Errorf("malformed approx answer passed: %s", body)
		}
	}
	good := &outcome{req: &request{class: classApprox}, status: 200, source: "surrogate", bound: "0.1",
		body: []byte(`{"source":"surrogate","bound":0.1,"prediction":{"seconds":1}}`)}
	if err := checkApprox(good); err != nil {
		t.Errorf("well-formed approx answer failed: %v", err)
	}
	good.bound = "0.2"
	if checkApprox(good) == nil {
		t.Error("a bound header disagreeing with the body passed")
	}
}
