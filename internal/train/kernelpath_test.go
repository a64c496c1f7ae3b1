package train

import (
	"flag"
	"fmt"
	"os"
	"testing"
	_ "unsafe" // go:linkname
)

// tensorUseVector is tensor's unexported kernel-path selection, reached by
// linkname because it is deliberately not an option anybody can set: only the
// three packages whose differential suites pin the bitwise contract flip it,
// from their TestMain, between two whole runs.
//
//go:linkname tensorUseVector oooback/internal/tensor.useVector
var tensorUseVector bool

// TestMain runs the package's tests once per kernel path: as selected from the
// CPU, then — where that selected the vector path — again on tensor's Go
// loops, so every identity suite here holds on both. A -bench run is not
// repeated.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && tensorUseVector && flag.Lookup("test.bench").Value.String() == "" {
		tensorUseVector = false
		fmt.Println("train: second run, portable kernel path")
		code = m.Run()
	}
	os.Exit(code)
}
