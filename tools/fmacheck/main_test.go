package main

import (
	"reflect"
	"strings"
	"testing"
)

// objdump is canned go tool objdump output: a fused instruction in module
// code, one inlined into it from another module file, one in the standard
// library, the ppc64le and riscv64 spellings, and plain float arithmetic.
const objdump = `TEXT repro/internal/sim.(*Rand).JitterFrac(SB) /src/repro/internal/sim/rand.go
  rand.go:50		0x10bb74		1e630885		FMULD F3, F4, F5
  rand.go:70		0x10bb78		1f441463		FMADDD F4, F5, F3, F3
  rand.go:70		0x10bb7c		1e613863		FSUBD F1, F3, F3
TEXT repro/internal/device.(*Device).thermalTick(SB) /src/repro/internal/device/device.go
  device.go:529		0x20a000		1f608c44		FNMSUBD F0, F3, F2, F4
  mgcpacer.go:402	0x320ac			1f400c23		FMADDD F0, F3, F1, F3
  stats.go:55		0x40c010		fc2300fa		FMADD F1, F2, F3, F4
  stats.go:72		0x40c020		fc2300f8		FMSUBS F1, F2, F3, F4
  digest.go:210		0x50d000		0c2300f8		FMSUBD F1, F2, F3, F4
  model.go:38		0x50d004		0c2300f8		FADDD F1, F2, F3
  model.go:38		0x50d008		0c2300f8		MOVD $FMADDD, R1
`

func TestScanFused(t *testing.T) {
	got, err := scanFused(strings.NewReader(objdump))
	if err != nil {
		t.Fatal(err)
	}
	want := []fused{
		{0x10bb78, "FMADDD"}, {0x20a000, "FNMSUBD"}, {0x320ac, "FMADDD"},
		{0x40c010, "FMADD"}, {0x40c020, "FMSUBS"}, {0x50d000, "FMSUBD"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanFused = %v, want %v", got, want)
	}
}

func TestModuleSites(t *testing.T) {
	found, err := scanFused(strings.NewReader(objdump))
	if err != nil {
		t.Fatal(err)
	}
	// The line table resolves full paths: the instruction inside JitterFrac
	// and the inlined one in thermalTick both belong to module files, the
	// runtime's does not, and a -trimpath build names files by module path.
	lines := map[uint64]struct {
		file string
		line int
	}{
		0x10bb78: {"/src/repro/internal/sim/rand.go", 70},
		0x20a000: {"/src/repro/internal/sim/rand.go", 70},
		0x320ac:  {"/usr/lib/go/src/runtime/mgcpacer.go", 402},
		0x40c010: {"repro/internal/stats/stats.go", 55},
		0x40c020: {"/usr/lib/go/src/math/rand/rand.go", 72},
		0x50d000: {"/src/repro/internal/stats/digest.go", 210},
	}
	lineOf := func(pc uint64) (string, int) { return lines[pc].file, lines[pc].line }
	got := moduleSites(found, lineOf, "/src/repro", "repro")
	want := map[string][]string{
		"internal/sim/rand.go:70":      {"FMADDD", "FNMSUBD"},
		"internal/stats/stats.go:55":   {"FMADD"},
		"internal/stats/digest.go:210": {"FMSUBD"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("moduleSites = %v, want %v", got, want)
	}
}

func TestReport(t *testing.T) {
	got := report(map[string]map[string]bool{
		"internal/stats/stats.go:113": {"arm64 FMADDD": true},
		"internal/stats/stats.go:55":  {"riscv64 FMADDD": true, "arm64 FMADDD": true},
		"internal/sim/rand.go:70":     {"ppc64le FMADD": true},
	})
	want := []string{
		"internal/sim/rand.go:70: fused multiply-add (ppc64le FMADD)",
		"internal/stats/stats.go:55: fused multiply-add (arm64 FMADDD, riscv64 FMADDD)",
		"internal/stats/stats.go:113: fused multiply-add (arm64 FMADDD)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
