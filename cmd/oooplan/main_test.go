package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
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

// TestServe drives `oooplan serve` over HTTP: it answers /v1/healthz, plans
// resnet50 once and serves the repeat from its cache with the same bytes,
// counts one computed plan in /metrics, and exits 0 on SIGTERM.
func TestServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0], "serve", "-addr", addr)
	cmd.Env = append(os.Environ(), "OOOPLAN_AS_MAIN=1")
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	base := "http://" + addr

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no healthy answer within 10 s (last error %v)", err)
		}
	}

	post := func() (string, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/plan", "application/json",
			strings.NewReader(`{"model":"resnet50","cluster":{"preset":"pub-a","gpus":16}}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/plan: status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Plan-Outcome"), body
	}
	outcome, first := post()
	if outcome != "computed" {
		t.Errorf("first plan: outcome %q, want computed", outcome)
	}
	outcome, second := post()
	if outcome != "hit" {
		t.Errorf("repeated plan: outcome %q, want hit", outcome)
	}
	if !bytes.Equal(first, second) {
		t.Error("repeated plan: body differs from the computed one")
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "plansvc_plans_computed_total 1\n") {
		t.Errorf("/metrics does not count one computed plan:\n%s", metrics)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	exited = true
	if err != nil {
		t.Fatalf("after SIGTERM: %v\n%s", err, logs.String())
	}
}

// TestServeRejectsCorruptCalib: `oooplan serve -calib` on a file that is not
// a calibration profile exits 1 naming the file, before it listens.
func TestServeRejectsCorruptCalib(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := oooplan(t, "serve", "-addr", "127.0.0.1:0", "-calib", path)
	if code != 1 || !strings.Contains(out, path) {
		t.Errorf("exit %d, want 1 naming %s:\n%s", code, path, out)
	}
}
