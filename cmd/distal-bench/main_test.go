package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// captureStdout runs f with os.Stdout redirected and returns what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	got := <-out
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(got)
}

// TestAllGolden pins every figure table at 16 nodes: Fig. 15a/b, the eight
// Fig. 16 tables, the Fig. 9 verification table and the summary. The
// simulator is deterministic, so any difference is a behaviour change.
func TestAllGolden(t *testing.T) {
	checkGolden(t, "all-16.golden", captureStdout(t, func() error { return run("all", 16) }))
}

// TestTuneGolden pins `distal-bench -exp tune -tune-budget 32 -tune-seed 0`:
// the five example workloads' baseline, hand and tuned makespans and every
// winner's schedule text. The tuner is deterministic for a fixed budget and
// seed, so any difference is a behaviour change.
func TestTuneGolden(t *testing.T) {
	checkGolden(t, "tune-32.golden", captureStdout(t, func() error { return tuneExamples(32, 0) }))
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (rerun with -update only for an intended change):\n%s", path, got)
	}
}
