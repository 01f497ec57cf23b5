package device

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/thermal"
)

// TestThermalTickAllocFree gates the thermal hot path: with trace capacity
// reserved for the run window, one 100 ms thermal tick — per-cluster busy
// delta, power integration, RC zone step, cross-cluster coupling,
// temperature trace append — performs zero heap allocations on a warm
// device. The tick runs 10 times per simulated second on every
// thermal-enabled replay of a sweep.
func TestThermalTickAllocFree(t *testing.T) {
	prof := Profile{
		SoC:     soc.BigLittle44(),
		Thermal: thermal.PhoneConfig(2, 0, 0), // record-only zones: trace temps, never cap
	}
	model, err := prof.SoC.Calibrate(0)
	if err != nil {
		t.Fatal(err)
	}
	prof.ThermalPower = model
	eng := sim.NewEngine()
	// Nil governors: clusters idle at their lowest OPP, isolating the
	// thermal tick from the governor sample path (gated separately in soc).
	dev := NewMulti(eng, 1, []governor.Governor{nil, nil}, prof)
	dev.ReserveTraces(20 * sim.Second)

	// Warm up past boot transients (service start, first samples).
	eng.RunUntil(sim.Time(2 * sim.Second))

	next := eng.Now()
	if avg := testing.AllocsPerRun(50, func() {
		next = next.Add(100 * sim.Millisecond)
		eng.RunUntil(next)
	}); avg != 0 {
		t.Fatalf("one warm thermal tick window allocates %.2f, want 0", avg)
	}
	// The tick must actually have run and traced temperatures.
	if dev.ClusterTraces[0].Temp.Len() < 50 {
		t.Fatalf("thermal tick did not run: %d temp samples", dev.ClusterTraces[0].Temp.Len())
	}
}

// BenchmarkDeviceThermalTick measures one device-level thermal tick on a
// warm, idle big.LITTLE device: the per-cluster busy delta over every OPP,
// power integration, zone step, coupling and trace append. Between bursts —
// most ticks of a replay — every OPP's busy delta is zero, which is the
// case this bench holds fixed.
func BenchmarkDeviceThermalTick(b *testing.B) {
	prof := Profile{
		SoC:     soc.BigLittle44(),
		Thermal: thermal.PhoneConfig(2, 0, 0),
	}
	model, err := prof.SoC.Calibrate(0)
	if err != nil {
		b.Fatal(err)
	}
	prof.ThermalPower = model
	eng := sim.NewEngine()
	dev := NewMulti(eng, 1, []governor.Governor{nil, nil}, prof)
	dev.ReserveTraces(20 * sim.Second)
	eng.RunUntil(sim.Time(2 * sim.Second))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%128 == 0 {
			for _, ct := range dev.ClusterTraces {
				ct.Temp.Reset()
			}
		}
		dev.thermalTick(dev.thermalPeriod)
	}
}

// TestFrameCaptureNoAllocWhenUnchanged pins the zero-copy capture property:
// a dirty flag whose re-render produces identical pixels returns the cached
// frame without cloning, and the video extends its run on pointer identity.
func TestFrameCaptureNoAllocWhenUnchanged(t *testing.T) {
	eng := sim.NewEngine()
	dev := New(eng, 1, governor.NewOndemand(), Profile{})
	eng.RunUntil(sim.Time(sim.Second))

	first := dev.Frame()
	// Invalidate without changing content: same app, same screen, same
	// minute on the clock.
	dev.Invalidate()
	if avg := testing.AllocsPerRun(20, func() {
		dev.Invalidate()
		if f := dev.Frame(); f != first {
			t.Fatal("unchanged re-render returned a new frame")
		}
	}); avg != 0 {
		t.Fatalf("unchanged dirty capture allocates %.2f, want 0", avg)
	}
}
