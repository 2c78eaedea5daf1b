package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairnn/internal/experiments"
)

func TestF6(t *testing.T) {
	if got := f6(0.5); got != "0.500000" {
		t.Errorf("f6 = %q", got)
	}
	if got := f6(0); got != "0.000000" {
		t.Errorf("f6(0) = %q", got)
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	rows := [][]string{{"a", "b"}, {"1", "2"}}
	writeCSV(dir, "out.csv", rows)
	f, err := os.Open(filepath.Join(dir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1][1] != "2" {
		t.Fatalf("csv round trip failed: %v", got)
	}
}

func TestShrinkFig1PreservesSetup(t *testing.T) {
	// The small scale must shrink only Monte-Carlo effort, never the
	// experiment's parameters (radius, K/L rules).
	cfg := shrinkFig1(experiments.DefaultFig1LastFM())
	if cfg.Radius != 0.15 || cfg.FarSim != 0.1 || cfg.Recall != 0.99 {
		t.Errorf("shrink changed experimental setup: %+v", cfg)
	}
	if cfg.Builds <= 0 || cfg.RepsPerBuild <= 0 || cfg.Queries <= 0 {
		t.Errorf("shrink produced degenerate scale: %+v", cfg)
	}
}

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in        string
		paper, ok bool
	}{
		{"small", false, true},
		{"paper", true, true},
		{"papr", false, false},
		{"", false, false},
		{"Paper", false, false},
		{"paper ", false, false},
	} {
		paper, err := parseScale(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseScale(%q) err = %v, want ok = %v", tc.in, err, tc.ok)
			continue
		}
		if err != nil && !strings.Contains(err.Error(), "-scale") {
			t.Errorf("parseScale(%q) err = %q, want it to name -scale", tc.in, err)
		}
		if paper != tc.paper {
			t.Errorf("parseScale(%q) = %v, want %v", tc.in, paper, tc.paper)
		}
	}
}
