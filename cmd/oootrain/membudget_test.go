package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the test binary as the oootrain command: with
// OOOTRAIN_AS_MAIN=1 in its environment the process runs main on its own
// arguments instead of the tests, so exit statuses are checked for real.
func TestMain(m *testing.M) {
	if os.Getenv("OOOTRAIN_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// oootrain runs the command with args and returns its combined output and
// exit code.
func oootrain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OOOTRAIN_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestMemBudgetPicksIntervalAndVerifies: under a budget between the tightest
// and the loosest interval's peak, `oootrain -mem-budget` marks the cheapest
// interval that fits, trains with it and, with -verify, reports losses and
// weights bit-identical to conventional backprop. On the cnn that is full
// retention (its lowerings make every checkpointed interval peak higher); on
// the mlp it is every = 2, whose stashes all rebuild from the checkpoints.
func TestMemBudgetPicksIntervalAndVerifies(t *testing.T) {
	for _, c := range []struct {
		arch, budget string
		every        string
	}{
		{"cnn", "1000000", "1"},
		{"mlp", "60000", "2"},
	} {
		out, code := oootrain(t, "-arch", c.arch, "-mem-budget", c.budget, "-steps", "2", "-verify")
		if code != 0 {
			t.Fatalf("%s: exit %d:\n%s", c.arch, code, out)
		}
		for _, want := range []string{
			"\n * every=" + c.every + " ",
			"(interval " + c.every + ", peak ",
			"verify vs conventional: losses identical=true weights identical=true",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output lacks %q:\n%s", c.arch, want, out)
			}
		}
	}
}

// TestMemBudgetBelowEveryInterval: a budget no interval meets exits 1 naming
// the tightest peak the run could meet, and trains nothing.
func TestMemBudgetBelowEveryInterval(t *testing.T) {
	out, code := oootrain(t, "-arch", "cnn", "-mem-budget", "1000", "-steps", "2", "-verify")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "mem-budget 1000 bytes is below the tightest interval this run can meet (791808 bytes)") {
		t.Errorf("output lacks the budget message:\n%s", out)
	}
	if strings.Contains(out, "step  0") {
		t.Errorf("an infeasible budget still trained:\n%s", out)
	}
}
