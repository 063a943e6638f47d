// Command benchmark is the repository's benchmark: six named workloads run
// closed-loop, every operation verified, end-to-end metrics from an untraced
// pass and per-layer metrics from a traced one. See README.md in this
// directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark --workload run-gemm --seed 1 --seconds 10 --trace 0
//	go run ./benchmark > suite.json                 # all six, one suite object
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -check [stdout.json]
//	go run ./benchmark -write-golden
//
// The process started by the command line is the parent: the only writer to
// stdout. It re-executes itself once per workload (-child), hands the child a
// pipe for its result and points the child's stdout at stderr, so a child
// that panics, hangs or prints garbage turns into that workload's failed
// operations inside a well-formed result, never into a malformed one.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

const (
	// defaultSeconds is run_seconds of BENCHMARK.json.
	defaultSeconds = 10
	// childTimeout keeps a whole run inside the contract's 180 s.
	childTimeout  = 170 * time.Second
	benchmarkJSON = "BENCHMARK.json"
)

// suite is what a run over several workloads prints: one contract result per
// (workload, seed), in run order. -compare and -check read it back.
type suite struct {
	Runs []suiteRun `json:"runs"`
}

type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		workload = fs.String("workload", "all", "workload name, or all")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", defaultSeconds, "length of the measured phase")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass, per-layer metrics")
		runs     = fs.Int("runs", 1, "with -workload all: repeat the suite at seeds seed..seed+runs-1")
		check    = fs.Bool("check", false, "validate BENCHMARK.json and, if given, a captured stdout file")
		compare  = fs.Bool("compare", false, "compare two suite files under the bounds of BENCHMARK.json")
		golden   = fs.Bool("write-golden", false, "rewrite benchmark/golden from the current code")
		child    = fs.Bool("child", false, "internal: run one workload and write the result to fd 3")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 || *runs < 1 {
		logf("want -trace 0|1, -seconds > 0, -runs >= 1")
		return 2
	}
	switch {
	case *child:
		return childMain(*workload, *seed, *seconds, *trace == 1)
	case *golden:
		if err := writeGolden(); err != nil {
			logf("write-golden: %v", err)
			return 1
		}
		return 0
	case *check:
		return checkMain(fs.Args())
	case *compare:
		if fs.NArg() != 2 {
			logf("-compare takes two suite files")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), stdout)
	}

	exe, err := os.Executable()
	if err != nil {
		logf("cannot find my own executable: %v", err)
		return 1
	}
	if *workload != "all" {
		if _, ok := workloads[*workload]; !ok {
			logf("unknown workload %q", *workload)
			return 2
		}
		res := runChild(exe, *workload, *seed, *seconds, *trace)
		return emit(stdout, res, selfCheck(res, *trace == 1) && res.Correct)
	}
	var st suite
	ok := true
	for r := 0; r < *runs; r++ {
		for _, name := range workloadOrder {
			res := runChild(exe, name, *seed+int64(r), *seconds, *trace)
			ok = selfCheck(res, *trace == 1) && res.Correct && ok
			st.Runs = append(st.Runs, suiteRun{Workload: name, Seed: *seed + int64(r), Trace: *trace, Result: *res})
		}
	}
	return emit(stdout, st, ok)
}

// emit prints v as the one line of stdout.
func emit(stdout io.Writer, v any, ok bool) int {
	line, err := json.Marshal(v)
	if err != nil {
		logf("encoding the result: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !ok {
		return 1
	}
	return 0
}

// selfCheck is the -check every run ends with: the result against the
// contract, and BENCHMARK.json against the binary when it is there to read.
func selfCheck(res *result, trace bool) bool {
	bad := checkResult(res, trace)
	if bf, err := loadBenchmarkFile(benchmarkJSON); err == nil {
		bad = append(bad, checkBenchmarkFile(bf)...)
	} else if !errors.Is(err, os.ErrNotExist) {
		bad = append(bad, err.Error())
	}
	for _, b := range bad {
		logf("check: %s", b)
	}
	return len(bad) == 0
}

// failedResult is a workload that produced no measurement: one attempted,
// one failed, every metric present.
func failedResult(trace bool) *result {
	return &result{Attempted: 1, Failed: 1, Metrics: emptyMetrics(trace)}
}

// runChild runs one workload in a child process and returns its result; any
// way the child can go wrong comes back as failedResult.
func runChild(exe string, workload string, seed int64, seconds float64, trace int) *result {
	failed := func(format string, args ...any) *result {
		logf(workload+": "+format, args...)
		return failedResult(trace == 1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	pr, pw, err := os.Pipe()
	if err != nil {
		return failed("pipe: %v", err)
	}
	defer pr.Close()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	cmd.Stdout = os.Stderr // nothing a child prints may reach stdout
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{pw}
	cmd.WaitDelay = 5 * time.Second
	err = cmd.Start()
	pw.Close() // the child holds its own copy; ours would keep the read below from ending
	if err != nil {
		return failed("start: %v", err)
	}
	data, readErr := io.ReadAll(pr)
	if err := cmd.Wait(); err != nil {
		return failed("child failed: %v", err)
	}
	if readErr != nil {
		return failed("reading the child's result: %v", readErr)
	}
	res, err := parseResultLine(bytes.TrimSpace(data))
	if err != nil {
		return failed("child result does not parse: %v", err)
	}
	if bad := checkResult(res, trace == 1); len(bad) > 0 {
		return failed("child result violates the contract: %v", bad)
	}
	return res
}

// childMain runs one workload and writes its result to the pipe the parent
// passed as fd 3.
func childMain(workload string, seed int64, seconds float64, trace bool) int {
	e := env{seed: seed, seconds: seconds, trace: trace, warmups: defaultWarmups, segments: defaultSegments}
	res, err := runWorkload(workload, e)
	if err != nil {
		logf("%v", err)
		return 1
	}
	out := os.NewFile(3, "result")
	if out == nil {
		logf("no result pipe (run without -child)")
		return 1
	}
	if err := json.NewEncoder(out).Encode(res); err != nil {
		logf("writing the result: %v", err)
		return 1
	}
	if err := out.Close(); err != nil {
		logf("closing the result pipe: %v", err)
		return 1
	}
	return 0
}

// checkMain validates BENCHMARK.json and, optionally, a file holding the
// captured stdout of a run, which must be exactly one line: one result
// object, or one suite object.
func checkMain(files []string) int {
	var bad []string
	bf, err := loadBenchmarkFile(benchmarkJSON)
	if err != nil {
		bad = append(bad, err.Error())
	} else {
		bad = append(bad, checkBenchmarkFile(bf)...)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		for _, b := range checkOutput(data) {
			bad = append(bad, f+": "+b)
		}
	}
	for _, b := range bad {
		logf("check: %s", b)
	}
	if len(bad) > 0 {
		return 1
	}
	logf("check: ok")
	return 0
}

// checkOutput validates a run's whole stdout.
func checkOutput(data []byte) []string {
	line, hadNewline := bytes.CutSuffix(data, []byte("\n"))
	if !hadNewline || bytes.ContainsAny(line, "\r\n") || len(line) == 0 {
		return []string{"stdout is not exactly one newline-terminated line"}
	}
	if st, err := parseSuite(line); err == nil {
		var bad []string
		for _, r := range st.Runs {
			for _, b := range checkResult(&r.Result, r.Trace == 1) {
				bad = append(bad, fmt.Sprintf("%s seed %d: %s", r.Workload, r.Seed, b))
			}
		}
		return bad
	}
	res, err := parseResultLine(line)
	if err != nil {
		return []string{"neither a result nor a suite: " + err.Error()}
	}
	return checkResult(res, traceOf(res))
}

func parseSuite(data []byte) (*suite, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var st suite
	if err := dec.Decode(&st); err != nil {
		return nil, err
	}
	if len(st.Runs) == 0 {
		return nil, errors.New("suite has no runs")
	}
	return &st, nil
}
