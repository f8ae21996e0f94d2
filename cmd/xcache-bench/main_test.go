package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run main instead of the tests, so a
// test can drive the command end to end through its own executable.
const runMainEnv = "XCACHE_BENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagErrorsExitUsage: a bad -fig id or an unknown flag exits 2
// (usage); -fig none and -h exit 0. The runner executes each spec once
// and a run's outcome depends only on its spec, so it takes no retry
// flags and no wall deadline. Every figure comes from exact simulation,
// so it has no approximate-tier flag either.
func TestFlagErrorsExitUsage(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		want   int
		stderr string
	}{
		{[]string{"-fig", "none"}, 0, ""},
		{[]string{"-h"}, 0, ""},
		{[]string{"-fig", "bogus"}, 2, `unknown -fig id "bogus"`},
		{[]string{"-fig", "none", "-retries", "2"}, 2, "flag provided but not defined: -retries"},
		{[]string{"-fig", "none", "-backoff", "1s"}, 2, "flag provided but not defined: -backoff"},
		{[]string{"-fig", "none", "-spec-wall", "5m"}, 2, "flag provided but not defined: -spec-wall"},
		{[]string{"-fig", "none", "-hotloop-exec", "both"}, 2, "flag provided but not defined: -hotloop-exec"},
		{[]string{"-fig", "none", "-approx"}, 2, "flag provided but not defined: -approx"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if code != tc.want {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.want)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}
