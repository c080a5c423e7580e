package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/memcheck"
)

// runMainEnv, set in a test binary's environment, makes TestMain run
// the command instead of the tests: each case below re-runs this binary
// that way with its own flags, so it sees the command's output and exit
// status.
const runMainEnv = "MCCHECK_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mccheck runs the command with args and returns its combined output
// and exit status. Under -cover the child writes its counters where
// this binary writes its own, so the command's paths count.
func mccheck(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	if f := flag.Lookup("test.gocoverdir"); f != nil && f.Value.String() != "" {
		cmd.Env = append(cmd.Env, "GOCOVERDIR="+f.Value.String())
	}
	return run(t, cmd)
}

// run runs cmd and returns its combined output and exit status.
func run(t *testing.T, cmd *exec.Cmd) (string, int) {
	t.Helper()
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("%v: %v", cmd.Args, err)
	}
	return string(out), 0
}

// modesNamed fails t unless out names every row of the mode table.
func modesNamed(t *testing.T, out string) {
	t.Helper()
	for _, m := range memcheck.Modes {
		if !strings.Contains(out, m.Name) {
			t.Errorf("output does not name mode %s:\n%s", m.Name, out)
		}
	}
}

func TestListModes(t *testing.T) {
	out, code := mccheck(t, "-list-modes")
	if code != 0 {
		t.Fatalf("-list-modes exited %d:\n%s", code, out)
	}
	if lines := strings.Count(out, "\n"); lines != len(memcheck.Modes) {
		t.Errorf("-list-modes printed %d lines, want one per mode (%d):\n%s", lines, len(memcheck.Modes), out)
	}
	modesNamed(t, out)
}

// TestSweepOneTransport: a clean two-seed sweep of the default row over
// one wire passes, and reports the runs it made.
func TestSweepOneTransport(t *testing.T) {
	out, code := mccheck(t, "-mode", "default", "-seeds", "2", "-transport", "UCR-IB")
	if code != 0 {
		t.Fatalf("exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "mccheck: PASS 2 runs (mode=default, UCR-IB, seeds=2") {
		t.Errorf("no PASS line for 2 runs of the default row:\n%s", out)
	}
}

func TestUnknownMode(t *testing.T) {
	out, code := mccheck(t, "-mode", "bogus")
	if code == 0 {
		t.Fatalf("-mode bogus exited 0:\n%s", out)
	}
	if !strings.Contains(out, `unknown mode "bogus"`) {
		t.Errorf("-mode bogus does not say the mode is unknown:\n%s", out)
	}
	modesNamed(t, out)
}

func TestUnknownTransport(t *testing.T) {
	out, code := mccheck(t, "-transport", "bogus")
	if code != 2 {
		t.Fatalf("-transport bogus exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, `unknown transport "bogus"`) {
		t.Errorf("-transport bogus does not say the transport is unknown:\n%s", out)
	}
}
