package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vaq/internal/experiments"
)

func TestParseFlags(t *testing.T) {
	var all []string
	for _, e := range experiments.Experiments {
		all = append(all, e.IDs[0])
	}
	cases := []struct {
		name    string
		args    []string
		exps    []string // canonical ids, in run order
		scale   float64
		csvDir  string
		wantErr string // substring; "" means success
	}{
		{name: "defaults", args: nil, exps: all, scale: 1},
		{name: "explicit all", args: []string{"-exp", "all"}, exps: all, scale: 1},
		{name: "selection runs in registry order", args: []string{"-exp", "table6,fig2", "-scale", "0.2"},
			exps: []string{"fig2", "table6"}, scale: 0.2},
		{name: "ids are trimmed and case-folded", args: []string{"-exp", " Fig2 , TABLE8"},
			exps: []string{"fig2", "table8"}, scale: 1},
		{name: "alias", args: []string{"-exp", "fig5"}, exps: []string{"fig45"}, scale: 1},
		{name: "alias and canonical id run once", args: []string{"-exp", "fig4,fig45"}, exps: []string{"fig45"}, scale: 1},
		{name: "ablation group", args: []string{"-exp", "ablation"},
			exps: []string{"shortcircuit", "kernelu", "alpha", "critvalue"}, scale: 1},
		{name: "csv dir", args: []string{"-exp", "drift", "-csv", "out"}, exps: []string{"drift"}, scale: 1, csvDir: "out"},
		{name: "scale above one", args: []string{"-exp", "drift", "-scale", "2"}, exps: []string{"drift"}, scale: 2},
		{name: "unknown id beside a known one", args: []string{"-exp", "fig2,tabel6"}, wantErr: `unknown experiment "tabel6"`},
		{name: "unknown id alone", args: []string{"-exp", "nope"}, wantErr: `unknown experiment "nope"`},
		{name: "empty id", args: []string{"-exp", "fig2,"}, wantErr: `unknown experiment ""`},
		{name: "removed ops leg", args: []string{"-exp", "chaos"}, wantErr: `unknown experiment "chaos"`},
		{name: "zero scale", args: []string{"-scale", "0"}, wantErr: "positive finite"},
		{name: "negative scale", args: []string{"-scale", "-0.5"}, wantErr: "positive finite"},
		{name: "NaN scale", args: []string{"-scale", "NaN"}, wantErr: "positive finite"},
		{name: "infinite scale", args: []string{"-scale", "Inf"}, wantErr: "positive finite"},
		{name: "malformed scale", args: []string{"-scale", "big"}, wantErr: "invalid value"},
		{name: "unknown flag", args: []string{"-md"}, wantErr: "not defined"},
		{name: "stray argument", args: []string{"fig2"}, wantErr: "unexpected arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range cfg.exps {
				got = append(got, e.IDs[0])
			}
			if !slices.Equal(got, tc.exps) {
				t.Errorf("experiments = %v, want %v", got, tc.exps)
			}
			if cfg.scale != tc.scale || cfg.csvDir != tc.csvDir {
				t.Errorf("scale, csv = %v, %q; want %v, %q", cfg.scale, cfg.csvDir, tc.scale, tc.csvDir)
			}
		})
	}
}

// TestRunWritesMarkdownAndCSV runs one cheap experiment end to end: the
// table goes to stdout as markdown and to <dir>/<id>.csv as CSV, with
// the same header and the same cells.
func TestRunWritesMarkdownAndCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	cfg, err := parseFlags([]string{"-exp", "drift", "-scale", "0.05", "-csv", dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run(cfg, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	md := stdout.String()
	if !strings.HasPrefix(md, "### Concept drift") || !strings.Contains(md, "| query ") {
		t.Errorf("markdown output:\n%s", md)
	}
	if !strings.Contains(stderr.String(), "drift done in") {
		t.Errorf("stderr = %q, want a timing line", stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "drift.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "query,SVAQ F1,SVAQD F1" {
		t.Fatalf("drift.csv:\n%s", raw)
	}
	for _, cell := range strings.Split(lines[1], ",")[1:] {
		if !strings.Contains(md, "| "+cell+" ") {
			t.Errorf("CSV cell %q missing from the markdown", cell)
		}
	}
}
