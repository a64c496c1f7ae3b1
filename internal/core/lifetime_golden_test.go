package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"oooback/internal/graph"
	"oooback/internal/models"
)

var updateLifetime = flag.Bool("update", false, "rewrite testdata/lifetime_golden.txt from the current walks")

const lifetimePath = "testdata/lifetime_golden.txt"

// lifetimeDigests hashes, per quantity, everything the schedule walks derive
// from a set of legal schedules: the memory profile, the peak, the alloc
// trace (events, Init, OpEnd), the analysis (PeakLiveGrads, DWRank), the
// list scheduler's ops and the checkpointed walk (Profile, RecomputeTime,
// Recomputed).
type lifetimeDigests struct {
	profile, peak, trace, analysis, memsched, recompute hash.Hash
	buf                                                 []byte
}

func newLifetimeDigests() *lifetimeDigests {
	return &lifetimeDigests{profile: sha256.New(), peak: sha256.New(), trace: sha256.New(),
		analysis: sha256.New(), memsched: sha256.New(), recompute: sha256.New()}
}

// put writes vs to h as little-endian 64-bit words, with a length prefix so
// that adjacent schedules cannot alias.
func (d *lifetimeDigests) put(h hash.Hash, vs ...int64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], uint64(len(vs)))
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
	}
	h.Write(d.buf)
}

func (d *lifetimeDigests) putInts(h hash.Hash, vs []int) {
	w := make([]int64, len(vs))
	for i, v := range vs {
		w[i] = int64(v)
	}
	d.put(h, w...)
}

func (d *lifetimeDigests) schedule(t *testing.T, m *models.Model, s graph.BackwardSchedule) {
	t.Helper()
	L := len(m.Layers)
	d.put(d.profile, graph.MemoryProfile(m, s)...)
	d.put(d.peak, graph.PeakMemory(m, s))
	tr := graph.TraceAllocs(m, s)
	ev := make([]int64, 0, 3*len(tr.Events))
	for _, e := range tr.Events {
		free := int64(0)
		if e.Free {
			free = 1
		}
		ev = append(ev, int64(e.ID), e.Bytes, free)
	}
	d.put(d.trace, ev...)
	d.put(d.trace, int64(tr.Init))
	d.putInts(d.trace, tr.OpEnd)
	a, err := graph.Analyze(L, s)
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	d.put(d.analysis, int64(a.PeakLiveGrads))
	d.putInts(d.analysis, a.DWRank())
}

// checkpointed hashes the checkpointed walk of s at each interval in every.
func (d *lifetimeDigests) checkpointed(m *models.Model, s graph.BackwardSchedule, every ...int) {
	for _, c := range every {
		rc := graph.MemoryProfileRecompute(m, s, c)
		d.put(d.recompute, rc.Profile...)
		d.put(d.recompute, int64(rc.RecomputeTime), int64(rc.Recomputed))
	}
}

func (d *lifetimeDigests) memSchedule(m *models.Model) graph.BackwardSchedule {
	s := MemSchedule(m)
	ops := make([]int64, 0, 2*len(s))
	for _, op := range s {
		ops = append(ops, int64(op.Kind), int64(op.Layer))
	}
	d.put(d.memsched, ops...)
	return s
}

func (d *lifetimeDigests) add(add func(name string, h hash.Hash), prefix string) {
	add(prefix+"/profile", d.profile)
	add(prefix+"/peak", d.peak)
	add(prefix+"/trace", d.trace)
	add(prefix+"/analysis", d.analysis)
	add(prefix+"/memsched", d.memsched)
	add(prefix+"/recompute", d.recompute)
}

// lifetimeModel is a random byte profile with some zero-byte tensors, which
// exercise the trace's no-event paths. Forward times are the layer numbers,
// so the checkpointed walk's recompute time names the layers it re-forwards.
func lifetimeModel(rng *rand.Rand, L int) *models.Model {
	m := &models.Model{Name: "rand", Layers: make([]models.Layer, L)}
	bytes := func() int64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		return int64(rng.Intn(1 << 22))
	}
	for i := range m.Layers {
		m.Layers[i] = models.Layer{ActBytes: bytes(), OutBytes: bytes(), WorkBytes: bytes(),
			Fwd: time.Duration(i + 1)}
	}
	return m
}

// TestLifetimeGolden pins every quantity the §2 legality rule and the §3
// tensor-lifetime rule produce. For each zoo model under V100, TitanXP and
// P100 it walks the conventional, fast-forward, every reverse first-k
// (k = 0..L) and the list scheduler's schedule, checkpointed every 1..4
// layers too; then 200 random legal orders and their list schedules on
// random models, checkpointed every 1 + trial%6 layers; then it records the
// Validate verdict, error text included, of 500 random op soups. -update
// rewrites the file.
func TestLifetimeGolden(t *testing.T) {
	var cases, digests []string
	add := func(name string, h hash.Hash) {
		cases = append(cases, name)
		digests = append(digests, fmt.Sprintf("%x", h.Sum(nil)))
	}
	for _, p := range []models.GPUProfile{models.V100Profile(), models.TitanXPProfile(), models.P100Profile()} {
		for _, e := range models.Zoo() {
			m := e.Build(p)
			L := len(m.Layers)
			d := newLifetimeDigests()
			scheds := []graph.BackwardSchedule{graph.Conventional(L), FastForward(L)}
			for k := 0; k <= L; k++ {
				scheds = append(scheds, graph.ReverseFirstK(L, k))
			}
			scheds = append(scheds, d.memSchedule(m))
			for _, s := range scheds {
				d.schedule(t, m, s)
				d.checkpointed(m, s, 1, 2, 3, 4)
			}
			d.add(add, p.Name+"/"+e.Name)
		}
	}

	rng := rand.New(rand.NewSource(30))
	d := newLifetimeDigests()
	for trial := 0; trial < 200; trial++ {
		L := 1 + rng.Intn(48)
		m := lifetimeModel(rng, L)
		for _, s := range []graph.BackwardSchedule{randomBackwardOrder(rng, L), d.memSchedule(m)} {
			d.schedule(t, m, s)
			d.checkpointed(m, s, 1+trial%6)
		}
	}
	d.add(add, "random")

	verdicts := sha256.New()
	for trial := 0; trial < 500; trial++ {
		L := 1 + rng.Intn(6)
		n := 2 * L
		if trial%5 == 0 {
			n = rng.Intn(3 * L)
		}
		s := make(graph.BackwardSchedule, n)
		for i := range s {
			s[i] = graph.Op{Kind: graph.OpKind(rng.Intn(3)), Layer: rng.Intn(L + 2)}
		}
		if trial%7 == 0 {
			s = randomBackwardOrder(rng, L)
		}
		fmt.Fprintf(verdicts, "%d %v\n", L, s.Validate(L))
	}
	add("illegal/validate", verdicts)

	if *updateLifetime {
		var b strings.Builder
		for i := range cases {
			fmt.Fprintf(&b, "%s %s\n", cases[i], digests[i])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lifetimePath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(lifetimePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, _ := strings.Cut(sc.Text(), " ")
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden holds %d cases, the test runs %d", len(want), len(cases))
	}
	for i, name := range cases {
		if want[name] != digests[i] {
			t.Errorf("%s: digest %s, golden %q", name, digests[i], want[name])
		}
	}
}
