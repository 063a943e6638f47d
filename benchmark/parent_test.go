package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// childBehaviour makes the test binary, re-executed by runChild, misbehave
// the way a broken workload child could.
const childBehaviour = "BENCHMARK_TEST_CHILD"

func TestMain(m *testing.M) {
	switch os.Getenv(childBehaviour) {
	case "":
		os.Exit(m.Run())
	case "panic":
		fmt.Println("about to panic, on stdout")
		panic("child blew up")
	case "garbage":
		fmt.Println(`{"correct":true}`)
		fmt.Fprintln(os.NewFile(3, "result"), "this is not a result")
	case "incomplete":
		fmt.Fprintln(os.NewFile(3, "result"), `{"correct":true,"attempted":5,"failed":0,"metrics":{}}`)
	case "noisy":
		// Chatter on stdout, then a perfectly good result on the pipe.
		fmt.Println("progress: 50%")
		fmt.Println(`{"not":"the result"}`)
		if err := json.NewEncoder(os.NewFile(3, "result")).Encode(goodResult(false)); err != nil {
			panic(err)
		}
	}
	os.Exit(0)
}

// run drives the parent exactly as the command line does, with the test
// binary standing in for the child.
func run(t *testing.T, behaviour string, args ...string) (stdout string, code int) {
	t.Helper()
	t.Setenv(childBehaviour, behaviour)
	var out bytes.Buffer
	code = realMain(args, &out)
	return out.String(), code
}

func TestParentSurvivesBrokenChildren(t *testing.T) {
	for _, behaviour := range []string{"panic", "garbage", "incomplete"} {
		for _, trace := range []string{"0", "1"} {
			stdout, code := run(t, behaviour, "-workload", "run-gemm", "-seconds", "0.1", "-trace", trace)
			if code == 0 {
				t.Errorf("%s: parent exited 0 although the child failed", behaviour)
			}
			if bad := checkOutput([]byte(stdout)); len(bad) > 0 {
				t.Errorf("%s: stdout is not one well-formed result: %v\n%q", behaviour, bad, stdout)
			}
			res, err := parseResultLine([]byte(strings.TrimSpace(stdout)))
			if err != nil {
				t.Fatalf("%s: %v", behaviour, err)
			}
			if res.Correct || res.Attempted != 1 || res.Failed != 1 {
				t.Errorf("%s: result %+v, want one attempted, one failed", behaviour, res)
			}
		}
	}
}

func TestChildStdoutNeverReachesParentStdout(t *testing.T) {
	stdout, code := run(t, "noisy", "-workload", "run-gemm", "-seconds", "0.1")
	if code != 0 {
		t.Errorf("parent exited %d on a good child", code)
	}
	if bad := checkOutput([]byte(stdout)); len(bad) > 0 {
		t.Errorf("stdout is not one well-formed result: %v\n%q", bad, stdout)
	}
	if strings.Contains(stdout, "progress") || strings.Contains(stdout, "not") {
		t.Errorf("child chatter leaked to stdout: %q", stdout)
	}
}

func TestSuiteSurvivesBrokenChildren(t *testing.T) {
	stdout, code := run(t, "panic", "-seconds", "0.1")
	if code == 0 {
		t.Error("suite exited 0 although every child failed")
	}
	if bad := checkOutput([]byte(stdout)); len(bad) > 0 {
		t.Errorf("stdout is not one well-formed suite: %v", bad)
	}
	st, err := parseSuite([]byte(stdout))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Runs) != len(workloadOrder) {
		t.Errorf("suite has %d runs, want one per workload", len(st.Runs))
	}
}

func TestBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-compare", "only-one.json"},
	} {
		var out bytes.Buffer
		if code := realMain(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want non-zero and nothing printed", args, code, out.String())
		}
	}
}
