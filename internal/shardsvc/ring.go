// Package shardsvc is the multi-node plan-serving tier: a consistent-hash
// ring over canonical request fingerprints routes every plan/what-if to an
// owner shard, non-owners proxy to the owner and peer-fill their local LRU
// with the response (hot plans converge to every node), and a failure
// detector re-routes around dead peers by planning locally — schedules are
// pure functions of their fingerprint, so any node can compute any plan and
// get the byte-identical body.
package shardsvc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per ring member. 256 vnodes keep
// member shares within a few percent of uniform and bound key movement on a
// membership change to roughly the leaver's share.
const DefaultVNodes = 256

// Ring is an immutable consistent-hash ring. Placement is a pure function of
// (sorted member set, vnodes, key): every node of a tier builds the same ring
// from the same membership, whatever order the members were listed in.
type Ring struct {
	members []string
	vnodes  int
	points  []ringPoint // sorted ascending by hash
}

type ringPoint struct {
	hash   uint64
	member int32
}

// NewRing builds a ring over members (deduplicated, order-insensitive) with
// the given virtual-node count per member (≤ 0 → DefaultVNodes).
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	var uniq []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("shardsvc: empty ring member")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("shardsvc: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		vnodes:  vnodes,
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m, v)),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Colliding vnode hashes (astronomically unlikely) tie-break on the
		// member index so construction stays deterministic.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// hash64 is the ring's placement hash: the first 8 bytes of SHA-256,
// little-endian. Deterministic across processes and architectures.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.LittleEndian.Uint64(sum[:8])
}

// Members returns the sorted member set.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the member owning key: the first vnode clockwise from the
// key's hash.
func (r *Ring) Owner(key string) string {
	return r.members[r.points[r.search(hash64(key))].member]
}

// search returns the index of the first point with hash ≥ h (wrapping).
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
