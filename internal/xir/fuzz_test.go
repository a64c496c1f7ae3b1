package xir

import "testing"

// FuzzFuse drives the fusion pass with arbitrary op-kind sequences; the
// invariants (conservation, order, non-empty kernels) must hold for all of
// them. Run with `go test -fuzz=FuzzFuse ./internal/xir` for a real fuzzing
// session; under plain `go test` the seed corpus below executes.
func FuzzFuse(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 1})
	f.Add([]byte{3, 3, 3})
	f.Add([]byte{1, 1, 1, 1, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		ops := make([]Op, len(raw))
		for i, b := range raw {
			ops[i] = Op{Kind: OpKind(b % 4)}
		}
		ks := Fuse(ops)
		if opCount(ks) != len(ops) {
			t.Fatalf("fusion lost ops: %d vs %d", opCount(ks), len(ops))
		}
		idx := 0
		for _, k := range ks {
			if len(k.Ops) == 0 {
				t.Fatal("empty kernel")
			}
			for _, op := range k.Ops {
				if op.Kind != ops[idx].Kind {
					t.Fatal("fusion reordered ops")
				}
				idx++
			}
		}
	})
}
