package core

import "time"

// StrictArrivals exposes the family sweep's precondition to the external
// tests.
var StrictArrivals = strictArrivals

// InServiceAt reports whether the scratch's last simulation had a sync in
// service across t: a segment that started before t and ended after it.
func (s *IterScratch) InServiceAt(t time.Duration) bool {
	for _, sg := range s.segs {
		if sg.start < t && t < sg.end {
			return true
		}
	}
	return false
}
