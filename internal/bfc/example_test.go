package bfc_test

import (
	"fmt"

	"oooback/internal/bfc"
)

// Example replays a trace through the BFC arena: the 512-byte tensor does
// not fit the 256-byte hole its predecessor left, so it lands past the
// 1024-byte one and the fragmented peak exceeds the aligned one.
func Example() {
	res := bfc.Replay([]bfc.Event{
		{ID: 0, Bytes: 256},
		{ID: 1, Bytes: 1024},
		{ID: 0, Free: true},
		{ID: 2, Bytes: 512},
		{ID: 1, Free: true},
		{ID: 2, Free: true},
	})
	fmt.Println("logical peak:", res.LogicalPeakBytes)
	fmt.Println("aligned peak:", res.AlignedPeakBytes)
	fmt.Println("fragmented peak:", res.FragPeakBytes)
	fmt.Printf("frag ratio: %.3f\n", res.FragRatio)
	// Output:
	// logical peak: 1536
	// aligned peak: 1536
	// fragmented peak: 1792
	// frag ratio: 1.167
}
