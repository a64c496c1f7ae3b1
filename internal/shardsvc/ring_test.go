package shardsvc

import (
	"fmt"
	"math/rand"
	"testing"
)

// testKeys returns n deterministic fingerprint-shaped keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x-fingerprint-%d", i*2654435761, i)
	}
	return keys
}

func fourShards() []string {
	return []string{
		"http://shard-a:8080",
		"http://shard-b:8080",
		"http://shard-c:8080",
		"http://shard-d:8080",
	}
}

// Placement is a pure function of the member *set*: shuffling the input
// order never moves a key.
func TestRingDeterministicPlacement(t *testing.T) {
	members := fourShards()
	r1, err := NewRing(members, 256)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]string(nil), members...)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r2, err := NewRing(shuffled, 256)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range testKeys(2000) {
			if r1.Owner(k) != r2.Owner(k) {
				t.Fatalf("key %q: owner %q vs %q under shuffled membership", k, r1.Owner(k), r2.Owner(k))
			}
		}
	}
	// Duplicated members collapse to the same ring.
	r3, err := NewRing(append(members, members...), 256)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r3.Members()), 4; got != want {
		t.Fatalf("members after dedup = %d, want %d", got, want)
	}
	for _, k := range testKeys(500) {
		if r1.Owner(k) != r3.Owner(k) {
			t.Fatalf("dedup changed owner of %q", k)
		}
	}
}

// Balance: with 256 vnodes, every member's key share stays within 15% of the
// uniform share.
func TestRingBalance(t *testing.T) {
	r, err := NewRing(fourShards(), 256)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(100_000)
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	mean := float64(len(keys)) / 4
	for m, c := range counts {
		dev := (float64(c) - mean) / mean
		t.Logf("%s: %d keys (%+.2f%% of uniform)", m, c, dev*100)
		if dev > 0.15 || dev < -0.15 {
			t.Fatalf("%s owns %d keys, more than 15%% from the uniform %0.f", m, c, mean)
		}
	}
}

// Minimal disruption: when one of 4 shards leaves, (a) every key owned by a
// survivor keeps its owner — only the leaver's keys move — and (b) the moved
// fraction is the leaver's share: ~25% ideal, bounded by the 15% balance
// tolerance (≤ 25% · 1.15).
func TestRingKeyMovementOnLeave(t *testing.T) {
	members := fourShards()
	r, err := NewRing(members, 256)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(40_000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Owner(k)
	}
	for _, leaver := range members {
		var rest []string
		for _, m := range members {
			if m != leaver {
				rest = append(rest, m)
			}
		}
		shrunk, err := NewRing(rest, 256)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range keys {
			after := shrunk.Owner(k)
			if before[k] == leaver {
				moved++
				if after == leaver {
					t.Fatalf("key %q still owned by departed member", k)
				}
				continue
			}
			if after != before[k] {
				t.Fatalf("key %q moved %q→%q although its owner survived", k, before[k], after)
			}
		}
		frac := float64(moved) / float64(len(keys))
		t.Logf("leaver %s: %.2f%% of keys moved", leaver, frac*100)
		if frac > 0.25*1.15 {
			t.Fatalf("leaver %s: %.2f%% of keys moved, want ≤ %.2f%%", leaver, frac*100, 25*1.15)
		}
	}
}

// TestRingOwnerIsFirstVNodeClockwise: Owner agrees with a linear scan for
// the first vnode whose hash is at or past the key's, wrapping to the lowest
// vnode for keys hashed past the last one; the keys include both cases.
func TestRingOwnerIsFirstVNodeClockwise(t *testing.T) {
	r, err := NewRing(fourShards(), 8)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(h uint64) string {
		for _, p := range r.points {
			if p.hash >= h {
				return r.members[p.member]
			}
		}
		return r.members[r.points[0].member]
	}
	wrapped := 0
	last := r.points[len(r.points)-1].hash
	for _, k := range testKeys(2000) {
		h := hash64(k)
		if h > last {
			wrapped++
		}
		if got, want := r.Owner(k), scan(h); got != want {
			t.Fatalf("Owner(%q) = %q, linear scan %q", k, got, want)
		}
	}
	if wrapped == 0 {
		t.Fatal("no key hashed past the last vnode; the wrap-around went untested")
	}
}

// TestRingMembersIsACopy: Members returns the sorted member set, and writing
// into the returned slice changes neither the ring's members nor placement.
func TestRingMembersIsACopy(t *testing.T) {
	members := fourShards()
	r, err := NewRing([]string{members[2], members[0], members[3], members[1]}, 16)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(500)
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i] = r.Owner(k)
	}
	got := r.Members()
	for i := range members {
		if got[i] != members[i] {
			t.Fatalf("Members() = %v, want sorted %v", got, members)
		}
		got[i] = "http://intruder:8080"
	}
	for i, m := range r.Members() {
		if m != members[i] {
			t.Fatalf("writing into Members() changed the ring to %v", r.Members())
		}
	}
	for i, k := range keys {
		if r.Owner(k) != before[i] {
			t.Fatalf("writing into Members() moved %q", k)
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty membership must fail")
	}
	if _, err := NewRing([]string{""}, 0); err == nil {
		t.Fatal("empty member name must fail")
	}
	r, err := NewRing([]string{"only"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.VNodes() != DefaultVNodes {
		t.Fatalf("vnodes default = %d", r.VNodes())
	}
	if got := r.Owner("anything"); got != "only" {
		t.Fatalf("single-member owner = %q", got)
	}
}

// FuzzRingOwner: whatever the key bytes, placement is deterministic and the
// owner is a member.
func FuzzRingOwner(f *testing.F) {
	f.Add("plain-fingerprint")
	f.Add("")
	f.Add("\x00\xff\x00binary")
	members := fourShards()
	r1, err := NewRing(members, 32)
	if err != nil {
		f.Fatal(err)
	}
	r2, err := NewRing([]string{members[3], members[1], members[0], members[2]}, 32)
	if err != nil {
		f.Fatal(err)
	}
	valid := map[string]bool{}
	for _, m := range members {
		valid[m] = true
	}
	f.Fuzz(func(t *testing.T, key string) {
		o1 := r1.Owner(key)
		if !valid[o1] {
			t.Fatalf("owner %q not a member", o1)
		}
		if o2 := r2.Owner(key); o2 != o1 {
			t.Fatalf("owner differs under shuffled membership: %q vs %q", o1, o2)
		}
	})
}
