package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the test binary as the oooplan command: with
// OOOPLAN_AS_MAIN=1 in its environment the process runs main on its own
// arguments instead of the tests, so exit statuses are checked for real.
func TestMain(m *testing.M) {
	if os.Getenv("OOOPLAN_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// oooplan runs the command with args and returns its combined output and
// exit code.
func oooplan(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OOOPLAN_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestLoadgenInproc: `oooplan loadgen -inproc` against its own in-process
// service succeeds on every request, prints the report and, with -o, writes
// the report JSON holding the requested count.
func TestLoadgenInproc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	out, code := oooplan(t, "loadgen", "-inproc", "-requests", "8", "-clients", "2", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "success rate    1.0000\n") {
		t.Errorf("report does not show every request succeeding:\n%s", out)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Requests     int            `json:"requests"`
		StatusCounts map[string]int `json:"status_counts"`
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("r.json: %v", err)
	}
	if rep.Requests != 8 || rep.StatusCounts["200"] != 8 {
		t.Errorf("r.json: %d requests, statuses %v; want 8, all 200", rep.Requests, rep.StatusCounts)
	}
}

// TestCommandErrors: a bad flag combination or value exits 1 naming the
// problem, and an unknown subcommand exits 2.
func TestCommandErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		says string
	}{
		{[]string{"loadgen", "-inproc", "-shards", "2"}, 1, "exactly one of -addr, -inproc, -shards"},
		{[]string{"loadgen", "-inproc", "-chaos"}, 1, "-chaos needs -shards >= 2"},
		{[]string{"loadgen", "-shards", "1", "-chaos"}, 1, "-chaos needs -shards >= 2"},
		{[]string{"loadgen", "-inproc", "-gpus", "0"}, 1, "-gpus"},
		{[]string{"no-such-subcommand"}, 2, `unknown subcommand "no-such-subcommand"`},
	} {
		out, code := oooplan(t, c.args...)
		if code != c.code || !strings.Contains(out, c.says) {
			t.Errorf("oooplan %s: exit %d, want %d with %q:\n%s", strings.Join(c.args, " "), code, c.code, c.says, out)
		}
	}
}
