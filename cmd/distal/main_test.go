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

// TestAlgGolden pins what `distal -alg X -n 64 -procs 16 -sim -trace`
// prints for every Fig. 9 algorithm, on CPUs and with -gpu: the schedule,
// the concrete index notation, the generated program, the simulated
// statistics and the copy trace.
func TestAlgGolden(t *testing.T) {
	for _, alg := range []string{"cannon", "pumma", "summa", "johnson", "solomonik", "cosma"} {
		for _, gpu := range []bool{false, true} {
			name := alg + "-cpu"
			if gpu {
				name = alg + "-gpu"
			}
			t.Run(name, func(t *testing.T) {
				got := captureStdout(t, func() error { return runAlg(alg, 64, 16, gpu, true, true, 4) })
				path := filepath.Join("testdata", name+".golden")
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
					t.Errorf("runAlg(%q) differs from %s (rerun with -update only for an intended change):\n%s", alg, path, got)
				}
			})
		}
	}
}
