package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metrics the program prints
// and the workloads it knows in step with the repository's BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	var bm benchmarkJSON
	readJSON(t, "../BENCHMARK.json", &bm)
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range bm.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bm.PerLayer), len(perLayer))
	}
	for i, m := range bm.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var known []string
	for n := range workloads {
		known = append(known, n)
	}
	sort.Strings(known)
	if len(names) != len(known) {
		t.Fatalf("workloads %v, program has %v", names, known)
	}
	for i := range names {
		if names[i] != known[i] {
			t.Fatalf("workloads %v, program has %v", names, known)
		}
	}
}

// TestLayerMap checks that the layer-to-end-to-end map names only known
// metrics and workloads, and covers every per-layer metric.
func TestLayerMap(t *testing.T) {
	var lm struct {
		Workloads map[string]struct {
			Stresses, Bypasses []string
		}
		Claims []struct {
			LayerMetrics []string `json:"layer_metrics"`
			Moves        []string
			On           []string
			FlatOn       []string `json:"flat_on"`
		}
	}
	readJSON(t, "layers.json", &lm)
	for name := range workloads {
		if w, ok := lm.Workloads[name]; !ok || len(w.Stresses) == 0 || len(w.Bypasses) == 0 {
			t.Errorf("layers.json: workload %s lacks stresses or bypasses", name)
		}
	}
	layer := map[string]bool{}
	for _, m := range perLayer {
		layer[m.name] = false
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	for i, c := range lm.Claims {
		for _, m := range c.LayerMetrics {
			if _, ok := layer[m]; !ok {
				t.Errorf("claim %d: unknown per-layer metric %s", i, m)
			}
			layer[m] = true
		}
		for _, m := range c.Moves {
			if !e2e[m] {
				t.Errorf("claim %d: unknown end-to-end metric %s", i, m)
			}
		}
		for _, w := range append(append([]string(nil), c.On...), c.FlatOn...) {
			if workloads[w] == nil {
				t.Errorf("claim %d: unknown workload %s", i, w)
			}
		}
	}
	for m, used := range layer {
		if !used {
			t.Errorf("per-layer metric %s is in no claim", m)
		}
	}
}
