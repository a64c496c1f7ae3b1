package main

import (
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wantLosses is every step's printed loss of a default 15-step momentum run
// (seed 42) per arch. Every engine trains bit-identically to the serial
// reference, so the data-parallel and pipeline runs of the mlp print the
// mlp's trajectory too.
var wantLosses = map[string][]string{
	"mlp": {"1.177920", "0.889707", "0.570873", "0.339715", "0.187072", "0.105481", "0.065605", "0.043315",
		"0.030201", "0.021991", "0.016590", "0.012967", "0.010320", "0.008298", "0.006723"},
	"cnn": {"3.756795", "1.550193", "1.222691", "1.131394", "0.502762", "0.160423", "0.137706", "0.130290",
		"0.052027", "0.025865", "0.040389", "0.051837", "0.039273", "0.019220", "0.007596"},
	"token": {"0.983289", "0.970516", "0.947957", "0.917165", "0.880886", "0.841223", "0.799495", "0.756831",
		"0.714386", "0.672474", "0.631932", "0.592746", "0.555074", "0.518133", "0.484426"},
}

// stepLoss matches a per-step report line's index and loss; the timing
// columns some modes append after the loss are not read.
var stepLoss = regexp.MustCompile(`(?m)^step +(\d+) +loss (\S+)`)

// checkRun asserts a run exited 0, printed verifyLine and printed arch's loss
// trajectory step by step.
func checkRun(t *testing.T, arch, verifyLine string, args ...string) {
	t.Helper()
	out, code := oootrain(t, args...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, verifyLine+": losses identical=true weights identical=true\n") {
		t.Errorf("output lacks %q:\n%s", verifyLine, out)
	}
	var got []string
	for i, m := range stepLoss.FindAllStringSubmatch(out, -1) {
		if m[1] != strconv.Itoa(i) {
			t.Fatalf("step line %d is numbered %s:\n%s", i, m[1], out)
		}
		got = append(got, m[2])
	}
	if want := wantLosses[arch]; !slices.Equal(got, want) {
		t.Errorf("losses\n got %v\nwant %v", got, want)
	}
}

// TestCLIPlainVerify: the single-process run of each arch prints its pinned
// trajectory and verifies against conventional backprop, under the default
// fast-forward order and, on the mlp, under reverse first-2.
func TestCLIPlainVerify(t *testing.T) {
	for _, arch := range []string{"mlp", "cnn", "token"} {
		t.Run(arch, func(t *testing.T) {
			checkRun(t, arch, "verify vs conventional", "-arch", arch, "-verify")
		})
	}
	t.Run("mlp-reverse-k2", func(t *testing.T) {
		checkRun(t, "mlp", "verify vs conventional", "-arch", "mlp", "-schedule", "reverse-k", "-k", "2", "-verify")
	})
}

// TestCLIReplicasVerify: the overlapped data-parallel run trains the serial
// trajectory and matches the serial reference reduce.
func TestCLIReplicasVerify(t *testing.T) {
	checkRun(t, "mlp", "verify vs serial reference reduce", "-arch", "mlp", "-replicas", "2", "-verify")
}

// TestCLIStagesVerify: the GPipe pipeline on the even split, and 1F1B on the
// measured-cost balanced split, train the serial trajectory and match the
// serial full-batch reference.
func TestCLIStagesVerify(t *testing.T) {
	t.Run("gpipe-even", func(t *testing.T) {
		checkRun(t, "mlp", "verify vs serial full-batch reference", "-arch", "mlp", "-stages", "2", "-verify")
	})
	t.Run("1f1b-balanced", func(t *testing.T) {
		checkRun(t, "mlp", "verify vs serial full-batch reference", "-arch", "mlp", "-stages", "3",
			"-pipe-sched", "1f1b", "-partition", "balanced", "-verify")
	})
}
