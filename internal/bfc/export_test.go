package bfc

// RefReplay is the scan-everything reference replay (refReplay), exposed to
// the external bfc_test package: its tests build traces with graph, which
// imports bfc.
var RefReplay = refReplay

// FreeExtentsAtAllocs applies a well-formed trace to an empty arena of the
// given size through place/release and returns, per allocation, how many
// free extents best fit scanned — or nil when an allocation does not fit.
func FreeExtentsAtAllocs(events []Event, arena int64) []int {
	var a allocator
	a.reset(arena)
	held := map[int]extent{}
	var scanned []int
	for _, ev := range events {
		if ev.Free {
			a.release(held[ev.ID])
			continue
		}
		scanned = append(scanned, len(a.free))
		n := roundUp(ev.Bytes)
		off, ok := a.place(n)
		if !ok {
			return nil
		}
		held[ev.ID] = extent{off, n}
	}
	return scanned
}
