package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// BENCHMARK.json at the repository root names the same metrics, with
// the same units and in the same order, as the catalogue the runs
// report, and the workloads runWorkload knows.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalogue %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	want := []string{"read-hot", "period-scale", "sim-paper"}
	if len(doc.Workloads) != len(want) {
		t.Fatalf("workloads %v, want %v", doc.Workloads, want)
	}
	for i, w := range doc.Workloads {
		if w.Name != want[i] {
			t.Errorf("workload %d is %s, want %s", i, w.Name, want[i])
		}
	}
	if _, err := runWorkload(args{workload: "no-such"}, nil); err == nil {
		t.Errorf("unknown workload accepted")
	}
}
