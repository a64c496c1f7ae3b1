package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// runtimeCounters is a snapshot of the process-wide allocation and GC
// counters. Deltas between two snapshots attribute allocations to the phase
// between them; the harness's own share is constant per operation.
type runtimeCounters struct {
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func (c *runtimeCounters) read() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.allocBytes = m.Mallocs, m.TotalAlloc
	c.gcCycles, c.gcPauseNs = m.NumGC, m.PauseTotalNs
}

// rssPeakMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status; 0 where the file does not exist.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
