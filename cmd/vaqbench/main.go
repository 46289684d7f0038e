// Command vaqbench regenerates the tables and figures of the paper's
// evaluation (§5) and prints them as markdown. Run with no flags for
// every experiment at paper scale, or select some:
//
//	vaqbench -exp fig2,table6 -scale 0.2
//	vaqbench -exp ablation -csv out/
//
// Experiment ids: fig2, fig3, table3, table4, table5, fig45 (aliases
// fig4, fig5), runtime, drift, table6, table7, table8, and the ablations
// shortcircuit, kernelu, alpha and critvalue ("ablation" selects all
// four). -csv also writes each table to <dir>/<id>.csv. Unknown ids and
// a scale that is not a positive finite number exit with status 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"vaq/internal/experiments"
)

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaqbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vaqbench:", err)
		os.Exit(1)
	}
}

// config is a validated command line.
type config struct {
	exps   []experiments.Experiment // in experiments.Experiments order
	scale  float64
	csvDir string
}

// parseFlags parses and validates the command line; flag errors and
// usage go to stderr.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("vaqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiment ids (or 'all')")
	scale := fs.Float64("scale", 1.0, "workload scale (1 = paper-sized datasets)")
	csvDir := fs.String("csv", "", "directory to also write each table to as <id>.csv (optional)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return config{}, fmt.Errorf("-scale %v: want a positive finite number", *scale)
	}
	exps, err := selectExperiments(*exp)
	if err != nil {
		return config{}, err
	}
	return config{exps: exps, scale: *scale, csvDir: *csvDir}, nil
}

// selectExperiments resolves a comma-separated id list; every id must
// name an experiment, an alias, "ablation" or "all".
func selectExperiments(list string) ([]experiments.Experiment, error) {
	known := map[string]bool{"all": true}
	for _, e := range experiments.Experiments {
		for _, id := range e.IDs {
			known[id] = true
		}
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.ToLower(strings.TrimSpace(id))
		if !known[id] {
			return nil, fmt.Errorf("-exp: unknown experiment %q", id)
		}
		wanted[id] = true
	}
	var out []experiments.Experiment
	for _, e := range experiments.Experiments {
		if wanted["all"] || slices.ContainsFunc(e.IDs, func(id string) bool { return wanted[id] }) {
			out = append(out, e)
		}
	}
	return out, nil
}

// run executes the selected experiments, printing each table as
// markdown to stdout and its timing to stderr.
func run(cfg config, stdout, stderr io.Writer) error {
	if cfg.csvDir != "" {
		if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
			return fmt.Errorf("csv dir: %w", err)
		}
	}
	ctx := experiments.NewContext()
	ctx.Scale = cfg.scale
	for _, e := range cfg.exps {
		id := e.IDs[0]
		start := time.Now()
		res, err := e.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := res.Table.WriteMarkdown(stdout); err != nil {
			return err
		}
		if cfg.csvDir != "" {
			if err := writeCSV(filepath.Join(cfg.csvDir, id+".csv"), res.Table); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		fmt.Fprintf(stderr, "vaqbench: %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func writeCSV(path string, t experiments.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
