package device_test

import (
	"testing"

	"repro/internal/device"
	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestCheckpointOfSealedDevicePanics pins that a checkpoint is taken only
// at the boot instant. A sealed device carries governors, traces and perhaps
// in-flight interactions that a Checkpoint does not hold, so checkpointing
// one must fail loudly instead of forking runs that silently differ from a
// cold boot. A device Restore handed back is sealed too.
func TestCheckpointOfSealedDevicePanics(t *testing.T) {
	govs := func() []governor.Governor { return []governor.Governor{governor.NewOndemand()} }
	for _, tc := range []struct {
		name string
		dev  func() *device.Device
	}{
		{"cold", func() *device.Device {
			return device.NewMulti(sim.NewEngine(), 1, govs(), device.DefaultProfile())
		}},
		{"restored", func() *device.Device {
			d := device.Boot(sim.NewEngine(), device.DefaultProfile())
			d.Restore(d.Checkpoint(), 1, govs())
			return d
		}},
	} {
		d := tc.dev()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Checkpoint of a sealed device did not panic", tc.name)
				}
			}()
			d.Checkpoint()
		}()
	}
}

// TestForkRestoreAllocFree is the steady-state allocation gate for the sweep
// fork loop: with recycled trace scratch, a fixed governor and no capture,
// restoring the boot checkpoint (which re-Seals) and running a window
// performs zero heap allocations once every pooled buffer has reached its
// high-water mark — the property that lets RunMatrix fork hundreds of runs
// without GC pressure.
func TestForkRestoreAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	prof := device.DefaultProfile()
	d := device.Boot(eng, prof)
	cp := d.Checkpoint()
	govs := []governor.Governor{governor.NewFixed(power.Snapdragon8074(), 5)}

	var ts []*trace.ClusterTraces
	var bc *trace.BusyCurve
	fork := func() {
		d.SetTraceScratch(ts)
		d.SetBusyScratch(bc)
		d.Restore(cp, 42, govs)
		d.ReserveTraces(3 * sim.Second)
		eng.RunUntil(sim.Time(3 * sim.Second))
		d.FinishTraces(3 * sim.Second)
		ts, bc = d.ClusterTraces, d.BusyCurve
	}
	// Warm-up forks: grow every recycled buffer to its high-water mark.
	fork()
	fork()
	if avg := testing.AllocsPerRun(10, fork); avg != 0 {
		t.Fatalf("steady-state fork+restore allocates %.1f times per run, want 0", avg)
	}
}
