// Command bench is the repository's benchmark: five workloads over the
// serving, query and ingest paths, 13 end-to-end metrics per workload
// and — in a separate traced run — a per-layer ladder measured from
// outside the layers. See README.md in this directory.
//
//	bash bench/run.sh -workload topk_single -seed 11            one run
//	bash bench/run.sh -workload topk_single -seed 11 -trace 1   its traced run
//	bash bench/run.sh -workload all -seed 11 -trace 1           everything, writes out/BENCH.json
//	bash bench/run.sh -workload all -repeat 3                   medians and quartiles over fresh processes
//	bash bench/run.sh -compare A.json B.json                    regression table, non-zero exit on "regressed"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// runResult is the last line a single run prints: exactly these keys.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, or all")
		seedFlag     = flag.Int64("seed", 11, "the only source of randomness: session order and request streams")
		secondsFlag  = flag.Float64("seconds", 10, "how long the workload's phases measure (set-up comes on top)")
		traceFlag    = flag.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics and out/trace_<workload>.json")
		probesFlag   = flag.Bool("probes", true, "with -trace 1: false skips the layer probes, which do not depend on the workload, and reports only proc.* and bench.* (-workload all probes once)")
		scaleFlag    = flag.String("scale", "full", "full (the frozen sizes) or quick (smoke test)")
		repeatFlag   = flag.Int("repeat", 1, "run each workload this many times in fresh processes; report median, quartiles, min, max")
		compareFlag  = flag.Bool("compare", false, "compare two BENCH.json files given as arguments")
		outFlag      = flag.String("out", "", "output directory (default: out/ beside the benchmark's sources)")
	)
	flag.Parse()

	if *compareFlag {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two files: A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	outDir := *outFlag
	if outDir == "" {
		outDir = filepath.Join(os.Getenv("VAQBENCH_DIR"), "out")
	}
	sz := fullSizes
	switch *scaleFlag {
	case "full":
	case "quick":
		sz = quickSizes
	default:
		fatal(fmt.Errorf("unknown -scale %q (want full or quick)", *scaleFlag))
	}

	if *workloadFlag == "all" || *repeatFlag > 1 {
		names := []string{*workloadFlag}
		if *workloadFlag == "all" {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.Name)
			}
		}
		if err := runMany(names, *seedFlag, *secondsFlag, *traceFlag == 1, *scaleFlag, *repeatFlag, outDir); err != nil {
			fatal(err)
		}
		return
	}

	if !findWorkload(*workloadFlag) {
		fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
	}
	env, err := newRunEnv(*workloadFlag, *seedFlag, *secondsFlag, sz, outDir)
	if err != nil {
		fatal(err)
	}
	var metrics map[string]float64
	defs := endToEnd
	if *traceFlag == 1 {
		defs = tracedDefs(*probesFlag)
		metrics, err = env.runTraced(outDir, *probesFlag)
	} else {
		metrics, err = env.runWorkload()
	}
	env.close()
	if err != nil {
		fatal(err)
	}
	res := runResult{
		Correct:   env.ops.failed == 0,
		Attempted: env.ops.attempted,
		Failed:    env.ops.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not produce metric %s", *workloadFlag, d.Name))
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for _, k := range sortedKeys(env.notes) {
		fmt.Printf("# %-32s %16.6g\n", k, env.notes[k])
	}
	for _, e := range env.ops.firstErrs {
		fmt.Printf("# failed: %s\n", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
