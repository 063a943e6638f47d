package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The golden files are embedded so the binary checks against the values it
// was built with wherever it runs; -write-golden rewrites the sources.
//
//go:embed golden/*.json
var goldenFS embed.FS

// goldenDir is where -write-golden writes, relative to the repository root.
const goldenDir = "benchmark/golden"

// tuneGolden pins tune-gemm. Generated, Illegal and the AutoSchedule baseline
// do not depend on the tuner's seed and are checked on every run; the winner
// and Evaluated belong to Seed and are checked when the run uses that seed.
type tuneGolden struct {
	Seed              int64   `json:"seed"`
	Budget            int     `json:"budget"`
	Generated         int     `json:"generated"`
	Illegal           int     `json:"illegal"`
	Evaluated         int     `json:"evaluated"`
	BaselineMakespanS float64 `json:"baseline_makespan_sec"`
	Winner            string  `json:"winner_schedule"`
	WinnerMakespanS   float64 `json:"winner_makespan_sec"`
}

func loadSweepGolden() ([]simRow, error) {
	var rows []simRow
	return rows, loadGolden("paper-sweep.json", &rows)
}

func loadTuneGolden() (tuneGolden, error) {
	var g tuneGolden
	return g, loadGolden("tune-gemm.json", &g)
}

func loadGolden(name string, v any) error {
	data, err := goldenFS.ReadFile("golden/" + name)
	if err != nil {
		return fmt.Errorf("golden: %w (run -write-golden)", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("golden/%s: %w", name, err)
	}
	return nil
}

// writeGolden regenerates both golden files from the current code. Go's JSON
// encoding of a float64 is the shortest text that parses back to the same
// bits, so the files compare bit-exactly.
func writeGolden() error {
	var rows []simRow
	for _, cfg := range sweepConfigs() {
		row, err := runConfig(cfg, opCtx{})
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		rows = append(rows, row)
	}
	r, err := tuneOnce(context.Background(), tuneGoldenSeed)
	if err != nil {
		return err
	}
	g := tuneGolden{
		Seed: tuneGoldenSeed, Budget: tuneBudget,
		Generated: r.Generated, Illegal: r.Illegal, Evaluated: r.Evaluated,
		Winner: r.Winner.Schedule, WinnerMakespanS: r.Winner.MakespanSec,
	}
	if r.Baseline != nil {
		g.BaselineMakespanS = r.Baseline.MakespanSec
	}
	for name, v := range map[string]any{"paper-sweep.json": rows, "tune-gemm.json": g} {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(goldenDir, name), append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("%w (run -write-golden from the repository root)", err)
		}
	}
	return nil
}
