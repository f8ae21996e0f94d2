package main

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// runMainEnv makes the test binary run main instead of the tests, so a
// test can drive the command end to end through its own executable.
const runMainEnv = "XCACHE_SIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagErrorsExitUsage: a flag error exits 1 (usage), not the flag
// package's default 2, which xcache-sim reserves for a stall; -h exits 0.
// A hierarchy run whose watchdog fires does exit 2.
func TestFlagErrorsExitUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-bogus"}, 1},
		{[]string{"-scale", "abc"}, 1},
		{[]string{"-h"}, 0},
		{[]string{"-hier", "mx2", "-watchdog", "5"}, 2},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
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
	}
}
