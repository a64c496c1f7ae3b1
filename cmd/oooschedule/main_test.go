package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets a test run the test binary as the oooschedule command: with
// OOOSCHEDULE_AS_MAIN=1 in its environment the process runs main on its own
// arguments instead of the tests, so exit statuses are checked for real.
func TestMain(m *testing.M) {
	if os.Getenv("OOOSCHEDULE_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// oooschedule runs the command with args and returns its stdout, its stderr
// and its exit code.
func oooschedule(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OOOSCHEDULE_AS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return stdout.String(), stderr.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), 0
}

// TestUnknownNamesExit2: an unknown -model or -algo exits 2 naming it, and
// prints no schedule.
func TestUnknownNamesExit2(t *testing.T) {
	for _, c := range []struct{ flag, msg string }{
		{"-model", `oooschedule: unknown model "nope"`},
		{"-algo", `oooschedule: unknown algorithm "nope"`},
	} {
		stdout, stderr, code := oooschedule(t, c.flag, "nope")
		if code != 2 {
			t.Errorf("%s nope: exit %d, want 2", c.flag, code)
		}
		if !strings.Contains(stderr, c.msg) {
			t.Errorf("%s nope: stderr %q lacks %q", c.flag, stderr, c.msg)
		}
		if stdout != "" {
			t.Errorf("%s nope: printed %q", c.flag, stdout)
		}
	}
}

// TestDotPrintsDigraph: -dot prints the dependency graph in Graphviz form.
func TestDotPrintsDigraph(t *testing.T) {
	stdout, stderr, code := oooschedule(t, "-dot", "-model", "ffnn16")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "digraph ") || !strings.HasSuffix(strings.TrimSpace(stdout), "}") {
		t.Errorf("-dot printed no digraph:\n%s", stdout)
	}
}

// TestModelJSONRoundTrip: a cost profile written by -dump-model and read back
// with -model-json schedules exactly as the zoo model it came from.
func TestModelJSONRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "resnet50.json")
	if _, stderr, code := oooschedule(t, "-dump-model", file, "-model", "resnet50"); code != 0 {
		t.Fatalf("-dump-model: exit %d: %s", code, stderr)
	}
	fromJSON, stderr, code := oooschedule(t, "-model-json", file, "-algo", "reverse-k", "-k", "10")
	if code != 0 {
		t.Fatalf("-model-json: exit %d: %s", code, stderr)
	}
	fromZoo, stderr, code := oooschedule(t, "-model", "resnet50", "-algo", "reverse-k", "-k", "10")
	if code != 0 {
		t.Fatalf("-model: exit %d: %s", code, stderr)
	}
	if fromJSON != fromZoo {
		t.Errorf("-model-json output differs from -model's:\n%s\nvs\n%s", fromJSON, fromZoo)
	}
	if !strings.Contains(fromZoo, "algorithm=reverse-k") {
		t.Errorf("no schedule printed:\n%s", fromZoo)
	}
}

// TestDumpAllMatchesSchedules: `oooschedule -all` regenerates the committed
// schedules/ directory byte for byte, file for file.
func TestDumpAllMatchesSchedules(t *testing.T) {
	dir := t.TempDir()
	if err := dumpAll(dir); err != nil {
		t.Fatal(err)
	}
	const committed = "../../schedules"
	names := func(d string) []string {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	got, want := names(dir), names(committed)
	if !slices.Equal(got, want) {
		t.Fatalf("dumpAll wrote %v, schedules/ holds %v", got, want)
	}
	for _, name := range want {
		g, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(committed, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the committed schedule", name)
		}
	}
}
