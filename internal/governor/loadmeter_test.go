package governor

import (
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
)

// fakeCPU drives a loadMeter with hand-set per-core busy counters, simulating
// conditions a live cluster produces only in corner cases (counter resets
// after hotplug/migration, skewed multi-core domains).
type fakeCPU struct {
	now     sim.Time
	perCore []sim.Duration
	opp     int
	tbl     power.Table
}

func (f *fakeCPU) Now() sim.Time                   { return f.now }
func (f *fakeCPU) After(d sim.Duration, fn func()) {}
func (f *fakeCPU) AfterIdle(sim.Duration, func())  {}
func (f *fakeCPU) RequestOPPIndex(i int)           { f.opp = i }
func (f *fakeCPU) OPPIndex() int                   { return f.opp }
func (f *fakeCPU) RequestedOPPIndex() int          { return f.opp }
func (f *fakeCPU) Table() power.Table              { return f.tbl }
func (f *fakeCPU) NumCores() int                   { return len(f.perCore) }

func (f *fakeCPU) CumulativeBusy() sim.Duration {
	var sum sim.Duration
	for _, d := range f.perCore {
		sum += d
	}
	return sum
}

func (f *fakeCPU) PerCoreBusy(dst []sim.Duration) []sim.Duration {
	if cap(dst) < len(f.perCore) {
		dst = make([]sim.Duration, len(f.perCore))
	}
	dst = dst[:len(f.perCore)]
	copy(dst, f.perCore)
	return dst
}

func newFakeCPU(cores int) *fakeCPU {
	return &fakeCPU{perCore: make([]sim.Duration, cores), tbl: power.Snapdragon8074()}
}

func TestLoadMeterClampsNegativeLoad(t *testing.T) {
	cpu := newFakeCPU(1)
	cpu.perCore[0] = 500 * sim.Millisecond
	var m loadMeter
	m.reset(cpu)
	m.window = 100 * sim.Millisecond // each sample below spans 100 ms
	// A busy-counter reset (cluster hotplug / migration) makes the next
	// delta negative; the meter must report 0, not a negative percent.
	cpu.now = cpu.now.Add(100 * sim.Millisecond)
	cpu.perCore[0] = 100 * sim.Millisecond
	if load := m.sample(); load != 0 {
		t.Fatalf("load after counter reset = %d, want 0", load)
	}
	// The meter re-bases on the reset counter and keeps working.
	cpu.now = cpu.now.Add(100 * sim.Millisecond)
	cpu.perCore[0] += 50 * sim.Millisecond
	if load := m.sample(); load != 50 {
		t.Fatalf("load after re-base = %d, want 50", load)
	}
}

// TestLoadMeterMaxOfCPUs pins the per-core fix: the domain load is the
// busiest core's load, not the average. One core saturated on a 4-core
// cluster is 100% load — the old domain average reported 25% and kept the
// cluster at low frequency while a serial task ran flat out.
func TestLoadMeterMaxOfCPUs(t *testing.T) {
	cpu := newFakeCPU(4)
	var m loadMeter
	m.reset(cpu)
	m.window = 100 * sim.Millisecond // each sample below spans 100 ms
	// One-hot: core 0 busy the whole window, the rest idle.
	cpu.now = cpu.now.Add(100 * sim.Millisecond)
	cpu.perCore[0] = 100 * sim.Millisecond
	if load := m.sample(); load != 100 {
		t.Fatalf("one-hot load = %d, want 100 (max-of-CPUs)", load)
	}
	// Mixed: 60% on core 1, 30% on core 2 — the max wins.
	cpu.now = cpu.now.Add(100 * sim.Millisecond)
	cpu.perCore[1] += 60 * sim.Millisecond
	cpu.perCore[2] += 30 * sim.Millisecond
	if load := m.sample(); load != 60 {
		t.Fatalf("mixed load = %d, want 60 (busiest core)", load)
	}
	// A negative delta on one core (counter reset) must not mask the others.
	cpu.now = cpu.now.Add(100 * sim.Millisecond)
	cpu.perCore[0] = 0
	cpu.perCore[3] += 40 * sim.Millisecond
	if load := m.sample(); load != 40 {
		t.Fatalf("load with one reset core = %d, want 40", load)
	}
}

func TestLoadMeterCapsAtHundred(t *testing.T) {
	cpu := newFakeCPU(1)
	var m loadMeter
	m.reset(cpu)
	m.window = 100 * sim.Millisecond // each sample below spans 100 ms
	cpu.now = cpu.now.Add(100 * sim.Millisecond)
	cpu.perCore[0] = 150 * sim.Millisecond // over-attribution from rounding
	if load := m.sample(); load != 100 {
		t.Fatalf("load = %d, want capped 100", load)
	}
}

// TestLoadMeterSingleCoreMatchesDomainAverage pins the compatibility side of
// the fix: on a 1-core domain max-of-CPUs equals the old busy/(wall*cores)
// average, so the paper's Dragonboard golden traces stay bit-for-bit.
func TestLoadMeterSingleCoreMatchesDomainAverage(t *testing.T) {
	cpu := newFakeCPU(1)
	var m loadMeter
	m.reset(cpu)
	m.window = 100 * sim.Millisecond // each sample below spans 100 ms
	for i, frac := range []sim.Duration{73, 12, 100, 0, 55} {
		cpu.now = cpu.now.Add(100 * sim.Millisecond)
		cpu.perCore[0] += frac * sim.Millisecond
		if load := m.sample(); load != int(frac) {
			t.Fatalf("step %d: load = %d, want %d", i, load, frac)
		}
	}
}

// quadRig wires a real 4-core cluster to a governor, with one serial task
// saturating a single core — the "one-hot" load shape the satellite tests:
// a serial encode on a multi-core cluster must still raise the frequency.
func quadRig() (*sim.Engine, *soc.Cluster) {
	eng := sim.NewEngine()
	c := soc.NewCluster(eng, soc.ClusterSpec{Name: "quad", NumCores: 4, Table: power.Snapdragon8074()})
	return eng, c
}

// serialBurst keeps exactly one core of the cluster 100% busy for dur, sized
// for the maximum frequency so it saturates even if the governor ramps up.
func serialBurst(eng *sim.Engine, c *soc.Cluster, dur sim.Duration) {
	cycles := soc.Cycles(int64(dur) * int64(c.Table().Max()) / 1000)
	c.Submit("serial", cycles, nil)
}

func TestOneHotLoadRaisesFrequency(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Governor
		min  int // OPP index the governor must reach during the burst
	}{
		// Ondemand sees >= up_threshold load and jumps straight to max.
		{"ondemand", func() Governor { return NewOndemand() }, 13},
		// Interactive crosses go_hispeed_load, then climbs to max after
		// above_hispeed_delay.
		{"interactive", func() Governor { return NewInteractive() }, 13},
		// Conservative walks up in 5%-of-max steps; within 600ms of its
		// 120ms sampling it must have taken several steps off the floor.
		{"conservative", func() Governor { return NewConservative() }, 2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng, c := quadRig()
			tc.mk().Start(c)
			serialBurst(eng, c, 2*sim.Second)
			peak := 0
			c.OnFreqChange = func(at sim.Time, idx int) {
				if idx > peak {
					peak = idx
				}
			}
			eng.RunUntil(sim.Time(600 * sim.Millisecond))
			if peak < tc.min {
				t.Fatalf("peak OPP %d under one-hot load, want >= %d: the domain-average "+
					"load meter would see 25%% and stay cold", peak, tc.min)
			}
		})
	}
}
