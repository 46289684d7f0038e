package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every workload and metric the program knows is in BENCHMARK.json and
// the other way round, with the same unit, direction and bound.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj := readContract(t)

	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].Name || w.Why != workloads[i].Why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}

	check := func(kind string, file, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
		}
		seen := map[string]bool{}
		for i, d := range prog {
			if seen[d.Name] {
				t.Errorf("%s: %s is listed twice", kind, d.Name)
			}
			seen[d.Name] = true
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: %s (%s) is outside the contract's charset", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, d.Name, d.Better)
			}
			if bounded && !(d.Bound > 0 && d.Bound <= 0.25) {
				t.Errorf("%s: %s has bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
			if i < len(file) && file[i] != d {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)

	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	hasSetup := false
	for _, d := range bj.EndToEnd {
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
}
