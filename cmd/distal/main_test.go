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
				checkGolden(t, name, captureStdout(t, func() error { return runAlg(alg, 64, 16, gpu, true, true, 4) }))
			})
		}
	}
}

// TestExprChainGolden pins what the -expr and -chain modes print at the
// default -n 64 -procs 4: an auto-scheduled statement, an explicit schedule
// with -trace, an auto-scheduled GEMM on GPUs, and a two-statement chain.
func TestExprChainGolden(t *testing.T) {
	const gemm = "A(i,j) = B(i,k) * C(k,j)"
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		// distal -expr "A(i,j) = B(i,j,k) * c(k)" -sim
		{"expr-ttv", func() error { return runExpr("A(i,j) = B(i,j,k) * c(k)", "", 64, 4, false, true, false, 4) }},
		// distal -expr "A(i,j) = B(i,k) * C(k,j)" -sched "..." -sim -trace
		{"expr-sched", func() error {
			return runExpr(gemm, "divide(i,io,ii,4) reorder(io,ii,j,k) distribute(io) communicate(io,A,B,C)", 64, 4, false, true, true, 4)
		}},
		// distal -expr "A(i,j) = B(i,k) * C(k,j)" -gpu -procs 8 -sim
		{"expr-gpu", func() error { return runExpr(gemm, "", 64, 8, true, true, false, 4) }},
		// distal -chain "D(i,j)=A(i,k)*B(k,j); E(i,j)=D(i,k)*C(k,j)" -sim
		{"chain", func() error { return runChain("D(i,j)=A(i,k)*B(k,j); E(i,j)=D(i,k)*C(k,j)", 64, 4, false, true, false) }},
	} {
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.name, captureStdout(t, tc.run)) })
	}
}

// checkGolden compares got with testdata/<name>.golden, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
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
		t.Errorf("%s differs from %s (rerun with -update only for an intended change):\n%s", name, path, got)
	}
}
