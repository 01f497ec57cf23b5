package device

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/thermal"
)

// TestThermalTickAllocFree gates the thermal hot path: with trace capacity
// reserved for the run window, the thermal tick — per-cluster busy delta,
// power integration, RC zone step, cross-cluster coupling, temperature
// trace append — and the catch-up of the ticks a quiet tick passed perform
// zero heap allocations on a warm device. Each measured window spawns one
// burst on the idle device: its SpawnWork catches the zones up through the
// passed ticks, the next tick runs live and sees the burst's heat, and the
// ticks after it go quiet again. The tick runs 10 times per simulated
// second on every thermal-enabled replay of a sweep.
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
	dev.ReserveTraces(40 * sim.Second)

	// Warm up past boot transients (service start, first samples).
	eng.RunUntil(sim.Time(2 * sim.Second))

	burst := func() { dev.SpawnWork("burst", 5_000_000, nil) }
	next := eng.Now()
	if avg := testing.AllocsPerRun(50, func() {
		eng.AtFunc(next.Add(150*sim.Millisecond), burst)
		next = next.Add(500 * sim.Millisecond)
		eng.RunUntil(next)
	}); avg != 0 {
		t.Fatalf("one warm thermal window (catch-up, live tick, quiet ticks) allocates %.2f, want 0", avg)
	}
	// Passed ticks trace their temperatures only when caught up: before
	// FinishTraces the trace reaches into the last window (its burst caught
	// the zones up and the next tick ran live) but misses the ticks passed
	// since. After it, every tick instant of the run holds exactly one point.
	temps := dev.ClusterTraces[0].Temp
	passed, last := temps.Len(), temps.Points[temps.Len()-1].At
	dev.FinishTraces(sim.Duration(eng.Now()))
	want := int(int64(eng.Now())/int64(dev.thermalPeriod)) + 1
	if temps.Len() != want || passed >= want || last < next.Add(-500*sim.Millisecond) {
		t.Fatalf("%d temp samples after FinishTraces, %d before (last at %v); want %d, one per tick, and fewer before, into the last window",
			temps.Len(), passed, last, want)
	}
	for k, p := range temps.Points {
		if p.At != sim.Time(int64(k)*int64(dev.thermalPeriod)) {
			t.Fatalf("temp sample %d at %v, want one every %v", k, p.At, dev.thermalPeriod)
		}
	}
	// The live ticks saw the bursts: the zone ends warmer than on a device
	// that only idled.
	cold := NewMulti(sim.NewEngine(), 1, []governor.Governor{nil, nil}, prof)
	cold.Eng.RunUntil(eng.Now())
	cold.FinishTraces(sim.Duration(eng.Now()))
	if got, idle := dev.Zones[0].TempC(), cold.Zones[0].TempC(); got <= idle {
		t.Fatalf("zone at %.4f°C after bursts, %.4f°C idle; want warmer", got, idle)
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
		dev.thermalTick()
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
