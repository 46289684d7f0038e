package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// benchFile is out/BENCH.json (and baselines/BENCH_<pr>.json): one
// summary per (workload, metric) over the repeats of fresh-process
// runs, and — the layer probes do not depend on the workload — one
// reading per layer metric, from the first workload's traced run.
type benchFile struct {
	Env       benchEnv                  `json:"env"`
	Workloads map[string]*workloadEntry `json:"workloads"`
	PerLayer  map[string]*metricSummary `json:"per_layer,omitempty"`
}

type benchEnv struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Repeat     int     `json:"repeat"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
}

type workloadEntry struct {
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Correct   bool                      `json:"correct"`
	EndToEnd  map[string]*metricSummary `json:"end_to_end"`
	PerLayer  map[string]*metricSummary `json:"per_layer,omitempty"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) *metricSummary {
	s := sortedCopy(values)
	q1, q3 := quartiles(s)
	return &metricSummary{Unit: unit, Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], Values: values}
}

// runChild re-executes this binary for one run in a fresh process (so
// heap, GC and RSS state never leak between workloads) and parses the
// result line.
func runChild(args []string) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, fmt.Errorf("%s %s: %w", filepath.Base(self), strings.Join(args, " "), err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res runResult
	if err := json.Unmarshal(last, &res); err != nil {
		return runResult{}, fmt.Errorf("child printed no result line: %w", err)
	}
	return res, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "+dirty"
	}
	return commit
}

// runMany runs each named workload repeat times untraced (plus one
// traced run each when traced), prints every metric with its unit and
// spread, and writes BENCH.json under outDir.
func runMany(names []string, seed int64, seconds float64, traced bool, scale string, repeat int, outDir string) error {
	bf := benchFile{
		Env: benchEnv{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: gitCommit(), Seed: seed, Seconds: seconds, Scale: scale, Repeat: repeat,
			Clients: min(runtime.NumCPU(), 4), Loop: "closed",
		},
		Workloads: map[string]*workloadEntry{},
	}
	base := []string{"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", scale, "-out", outDir}
	ok := true
	for _, name := range names {
		if !findWorkload(name) {
			return fmt.Errorf("unknown workload %q", name)
		}
		entry := &workloadEntry{Correct: true, EndToEnd: map[string]*metricSummary{}}
		bf.Workloads[name] = entry
		values := map[string][]float64{}
		for r := 0; r < repeat; r++ {
			res, err := runChild(append([]string{"-workload", name, "-trace", "0"}, base...))
			if err != nil {
				return err
			}
			entry.Attempted += res.Attempted
			entry.Failed += res.Failed
			entry.Correct = entry.Correct && res.Correct
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], res.Metrics[d.Name].Value)
			}
		}
		fmt.Printf("== %s: %d operations attempted, %d failed\n", name, entry.Attempted, entry.Failed)
		for _, d := range endToEnd {
			s := summarize(d.Unit, values[d.Name])
			entry.EndToEnd[d.Name] = s
			fmt.Printf("%-34s %14.6g %-8s", d.Name, s.Median, d.Unit)
			if repeat > 1 {
				fmt.Printf(" q1 %-12.6g q3 %-12.6g min %-12.6g max %-12.6g spread %.3f", s.Q1, s.Q3, s.Min, s.Max, spread(s.Values))
			}
			fmt.Println()
		}
		if traced {
			// Every traced child replays its own workload; only the first
			// also probes the layers.
			probes := bf.PerLayer == nil
			res, err := runChild(append([]string{"-workload", name, "-trace", "1", "-probes=" + strconv.FormatBool(probes)}, base...))
			if err != nil {
				return err
			}
			entry.Correct = entry.Correct && res.Correct
			entry.PerLayer = map[string]*metricSummary{}
			if probes {
				bf.PerLayer = map[string]*metricSummary{}
			}
			for _, d := range tracedDefs(probes) {
				into := bf.PerLayer
				if perWorkload(d.Name) {
					into = entry.PerLayer
				}
				into[d.Name] = summarize(d.Unit, []float64{res.Metrics[d.Name].Value})
				fmt.Printf("%-34s %14.6g %s\n", d.Name, into[d.Name].Median, d.Unit)
			}
		}
		ok = ok && entry.Correct
	}
	blob, err := json.MarshalIndent(bf, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "BENCH.json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if !ok {
		return fmt.Errorf("at least one workload had failed operations")
	}
	return nil
}

func readBench(path string) (*benchFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// verdict classifies B against A for one metric. worse is how much
// B's median is worse than A's as a share of A's. A metric whose
// run-to-run spread (on either side) is wider than its bound cannot be
// resolved by medians: it is settled only when every run of one side
// reads better than every run of the other.
func verdict(d metricDef, a, b *metricSummary) (worse float64, status string) {
	// badness maps a summary's range onto "larger is worse".
	badness := func(s *metricSummary) (lo, hi float64) {
		if d.Better == "higher" {
			return -s.Max, -s.Min
		}
		return s.Min, s.Max
	}
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if d.Better == "higher" {
			worse = -worse
		}
	}
	if spread(a.Values) <= d.Bound && spread(b.Values) <= d.Bound {
		if worse > d.Bound {
			return worse, "regressed"
		}
		return worse, "ok"
	}
	aLo, aHi := badness(a)
	bLo, bHi := badness(b)
	switch {
	case bHi < aLo: // every run of B reads better than every run of A
		return worse, "ok"
	case bLo > aHi && worse > d.Bound: // every run of B reads worse
		return worse, "regressed"
	}
	return worse, "unresolved"
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, the ratio B/A with its base, the bound and the verdict. It
// reports whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readBench(pathA)
	if err != nil {
		return false, err
	}
	b, err := readBench(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%s, seed %d, %d runs)\nB = %s (%s, seed %d, %d runs)\n",
		pathA, a.Env.Commit, a.Env.Seed, a.Env.Repeat, pathB, b.Env.Commit, b.Env.Seed, b.Env.Repeat)
	fmt.Fprintf(w, "%-14s %-22s %-8s %14s %14s %18s %6s  %s\n", "workload", "metric", "unit", "A median", "B median", "B/A (base A)", "bound", "verdict")
	for _, wl := range workloads {
		ea, eb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ea == nil || eb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := ea.EndToEnd[d.Name], eb.EndToEnd[d.Name]
			if sa == nil || sb == nil {
				continue
			}
			_, status := verdict(d, sa, sb)
			ratio := "n/a"
			if sa.Median != 0 {
				ratio = fmt.Sprintf("%.4f of %.6g", sb.Median/sa.Median, sa.Median)
			}
			fmt.Fprintf(w, "%-14s %-22s %-8s %14.6g %14.6g %18s %6.3g  %s\n", wl.Name, d.Name, d.Unit, sa.Median, sb.Median, ratio, d.Bound, status)
			regressed = regressed || status == "regressed"
		}
		if eb.Failed > ea.Failed {
			fmt.Fprintf(w, "%-14s failed operations rose from %d to %d: regressed\n", wl.Name, ea.Failed, eb.Failed)
			regressed = true
		}
	}
	return regressed, nil
}
