package bfc

import "testing"

// FuzzAllocator interprets the fuzz input as an alloc/free program and
// checks the allocator's structural invariants after every step. Run with
// `go test -fuzz=FuzzAllocator ./internal/bfc` for a real session.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{10, 0, 20, 1, 0})
	f.Add([]byte{255, 255, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, program []byte) {
		a := newTestArena(1 << 16)
		var live []int64
		for i := 0; i+1 < len(program) && i < 200; i += 2 {
			op, arg := program[i], program[i+1]
			if op%2 == 0 || len(live) == 0 {
				size := int64(arg)*64 + 1
				if off, ok := a.alloc(size); ok {
					live = append(live, off)
				}
			} else {
				j := int(arg) % len(live)
				a.dealloc(live[j])
				live = append(live[:j], live[j+1:]...)
			}
			if err := a.check(); err != nil {
				t.Fatal(err)
			}
		}
		for _, off := range live {
			a.dealloc(off)
		}
		if !a.drained() {
			t.Fatalf("drain left used=%d free=%v", a.used, a.free)
		}
	})
}

// FuzzReplay decodes the fuzz input into a well-formed trace and checks the
// replay against the scan-everything reference, and a Replayer carried
// across inputs against a fresh one. Run with
// `go test -run '^$' -fuzz '^FuzzReplay$' ./internal/bfc`.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{0, 10, 2, 200, 1, 0, 4, 7, 6, 255})
	f.Add([]byte{6, 1, 6, 2, 6, 3, 1, 1, 0, 0, 2, 9, 4, 4})
	f.Add([]byte{255, 255, 254, 254, 3, 3, 252, 1, 250, 2, 1, 1, 1, 0})
	var warm Replayer
	f.Fuzz(func(t *testing.T, program []byte) {
		events := decodeTrace(program)
		got := Replay(events)
		if w := warm.Replay(events); w != got {
			t.Fatalf("warm replayer %+v, fresh %+v", w, got)
		}
		if want := refReplay(events); got != want {
			t.Fatalf("replay %+v, reference %+v on %v", got, want, events)
		}
	})
}

// decodeTrace reads the input as (op, arg) byte pairs over 16 tensor IDs:
// an even op allocates the first dead ID from arg — sized tiny (0–255 B),
// unaligned, large (MBs) or mixed by op — and an odd op frees the live ID
// arg picks. IDs are reused after their free; whatever is live at the end
// is freed in allocation order, so every input is a well-formed trace.
func decodeTrace(program []byte) []Event {
	const ids = 16
	var events []Event
	var live []int
	isLive := make([]bool, ids)
	for i := 0; i+1 < len(program) && i < 400; i += 2 {
		op, arg := program[i], program[i+1]
		if op%2 == 1 && len(live) > 0 || len(live) == ids {
			j := int(arg) % len(live)
			events = append(events, Event{ID: live[j], Free: true})
			isLive[live[j]] = false
			live = append(live[:j], live[j+1:]...)
			continue
		}
		id := int(arg) % ids
		for isLive[id] {
			id = (id + 1) % ids
		}
		var size int64
		switch op / 2 % 4 {
		case 0:
			size = int64(arg)
		case 1:
			size = int64(arg)*300 + 1
		case 2:
			size = int64(arg) << 20
		default:
			size = int64(arg)<<12 + int64(op)
		}
		events = append(events, Event{ID: id, Bytes: size})
		isLive[id] = true
		live = append(live, id)
	}
	for _, id := range live {
		events = append(events, Event{ID: id, Free: true})
	}
	return events
}
