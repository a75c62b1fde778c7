package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCheckerCountsWrongAnswers proves the answer checks can fail: a
// permuted prediction, a dropped SELECT frame and a changed estimate are
// each counted as failures. The benchmark runs the same self-test before
// every run and refuses to measure if it does not pass.
func TestCheckerCountsWrongAnswers(t *testing.T) {
	if err := checkerSelfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the program prints in
// step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
}
