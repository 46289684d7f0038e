package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// quickRun makes one run of a workload at the smoke-test scale.
func quickRun(t *testing.T, workload string, traced, probes bool) (map[string]float64, *runEnv, string) {
	t.Helper()
	out := t.TempDir()
	env, err := newRunEnv(workload, 11, 0.2, quickSizes, out)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	var m map[string]float64
	if traced {
		m, err = env.runTraced(out, probes)
	} else {
		m, err = env.runWorkload()
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if env.ops.failed != 0 || env.ops.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, env.ops.failed, env.ops.attempted, env.ops.firstErrs)
	}
	return m, env, out
}

// checkNames asserts the run emitted exactly the named metrics.
func checkNames(t *testing.T, workload string, m map[string]float64, defs []metricDef, nonZero bool) {
	t.Helper()
	want := map[string]bool{}
	for _, d := range defs {
		want[d.Name] = true
		v, ok := m[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s: metric %s = %v", workload, d.Name, v)
		case nonZero && v <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", workload, d.Name, v)
		}
	}
	for name := range m {
		if !want[name] {
			t.Errorf("%s: emitted metric %s is not in the spec", workload, name)
		}
	}
}

// All five workloads at -scale quick, untraced, oracles on; and the
// modeled-cost metrics repeat exactly when a workload runs again.
func TestSmokeEndToEnd(t *testing.T) {
	first := map[string]map[string]float64{}
	for _, w := range workloads {
		m, _, _ := quickRun(t, w.Name, false, false)
		checkNames(t, w.Name, m, endToEnd, true)
		first[w.Name] = m
	}
	again, _, _ := quickRun(t, "topk_single", false, false)
	for _, name := range []string{"invocations_per_clip", "accesses_per_query", "bytes_per_clip"} {
		if a, b := first["topk_single"][name], again[name]; a != b {
			t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a, b)
		}
	}
	// Everywhere the corpus is the same, so are its counts.
	for _, w := range workloads {
		for _, name := range []string{"accesses_per_query", "bytes_per_clip"} {
			if a, b := first["topk_single"][name], first[w.Name][name]; a != b {
				t.Errorf("%s on %s = %v, on topk_single %v", name, w.Name, b, a)
			}
		}
	}
}

// The traced run: all per-layer metrics under their names, a span file
// whose forest passes checkSpans, and the goroutine count back at its
// pre-workload value once the servers are down. Three workloads cover
// the three replay paths (sessions, HTTP top-k through the coordinator,
// ingest with in-process top-k); the layer probes do not depend on the
// workload, so one of the three runs them.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		if w.Name == "online_solo" || w.Name == "topk_single" {
			continue
		}
		probes := w.Name == "topk_sharded"
		before := runtime.NumGoroutine()
		m, _, out := quickRun(t, w.Name, true, probes)
		checkNames(t, w.Name, m, tracedDefs(probes), false)
		if after := int(m["proc.goroutines_end"]); after > before {
			t.Errorf("%s: %d goroutines after shutdown, %d before the workload", w.Name, after, before)
		}
		for _, name := range []string{"shard.hedges", "shard.partials", "shard.failures"} {
			if m[name] != 0 { // absent without the probes
				t.Errorf("%s: %s = %v, want 0", w.Name, name, m[name])
			}
		}
		blob, err := os.ReadFile(filepath.Join(out, "trace_"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(blob, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 {
			t.Fatalf("%s: empty span file", w.Name)
		}
		if _, err := checkSpans(tf.Spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	runtime.GC() // let finalizers close the re-opened tables' files
}
