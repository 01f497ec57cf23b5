package device_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestForkRestoreAllocFree is the steady-state allocation gate for the sweep
// fork loop: with recycled trace scratch, a fixed governor and no capture,
// re-Sealing a warm device and running a window performs zero heap
// allocations once every pooled buffer has reached its high-water mark — the
// property that lets RunMatrix fork hundreds of runs without GC pressure.
// The second profile runs every kind of background service at once, news
// sync every second, over a window that spans several ticks of each, so a
// service loop that allocates per tick or per Start fails it.
func TestForkRestoreAllocFree(t *testing.T) {
	everyService := device.Profile{
		MusicAutoPlay: true,
		NewsSync:      true,
		NewsSyncEvery: sim.Second,
		AccountSync:   true,
		AccountEvery:  2 * sim.Second,
		Telemetry:     true,
		ExtraServices: []func() apps.Service{
			func() apps.Service { return apps.NewPeriodicService("ads", 8_000_000, sim.Second) },
		},
	}
	for _, tc := range []struct {
		name   string
		prof   device.Profile
		window sim.Duration
		passed uint64 // quiet events passed per fork
	}{
		// Under a fixed governor and with no thermal zones, only the paused
		// music decoder is quiet: 12 ticks in 3 s.
		{"default", device.DefaultProfile(), 3 * sim.Second, 12},
		{"every-service", everyService, 6 * sim.Second, 0},
	} {
		eng := sim.NewEngine()
		d := device.Boot(eng, tc.prof)
		govs := []governor.Governor{governor.NewFixed(power.Snapdragon8074(), 5)}

		var ts []*trace.ClusterTraces
		var bc *trace.BusyCurve
		fork := func() {
			d.SetTraceScratch(ts)
			d.SetBusyScratch(bc)
			d.Seal(42, govs)
			d.ReserveTraces(tc.window)
			eng.RunUntil(sim.Time(tc.window))
			d.FinishTraces(tc.window)
			ts, bc = d.ClusterTraces, d.BusyCurve
		}
		// Warm-up forks: grow every recycled buffer to its high-water mark.
		fork()
		fork()
		if avg := testing.AllocsPerRun(10, fork); avg != 0 {
			t.Errorf("%s: steady-state fork allocates %.1f times per run, want 0", tc.name, avg)
		}
		if _, passed := eng.Counts(); passed != tc.passed {
			t.Errorf("%s: a fork passed %d quiet events, want %d", tc.name, passed, tc.passed)
		}
	}
}
