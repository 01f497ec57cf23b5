package governor

import (
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
)

// rig wires a real simulated core to a governor for behavioural tests.
type rig struct {
	eng  *sim.Engine
	core *soc.Cluster
}

func newRig() *rig {
	eng := sim.NewEngine()
	core := soc.NewCore(eng, power.Snapdragon8074())
	return &rig{eng: eng, core: core}
}

func (r *rig) start(g Governor) {
	g.Start(r.core)
}

// burst keeps the core 100% busy from t for dur by submitting a task sized
// for the maximum frequency (so it stays busy even if the governor ramps to
// the top).
func (r *rig) burst(at sim.Time, dur sim.Duration) {
	r.eng.AtFunc(at, func() {
		cycles := soc.Cycles(int64(dur) * int64(r.core.Table().Max()) / 1000)
		r.core.Submit("burst", cycles, nil)
	})
}

func TestFixedPinsFrequency(t *testing.T) {
	r := newRig()
	g := NewFixed(r.core.Table(), 5)
	r.start(g)
	r.burst(0, 500*sim.Millisecond)
	r.eng.RunUntil(sim.Time(2 * sim.Second))
	if r.core.OPPIndex() != 5 {
		t.Fatalf("fixed governor drifted to OPP %d", r.core.OPPIndex())
	}
	if g.Name() != "0.96 GHz" {
		t.Fatalf("fixed name = %q", g.Name())
	}
}

func TestPerformancePowersave(t *testing.T) {
	tbl := power.Snapdragon8074()
	r := newRig()
	Performance(tbl).Start(r.core)
	if r.core.OPPIndex() != len(tbl)-1 {
		t.Fatal("performance did not pin max")
	}
	r2 := newRig()
	r2.core.RequestOPPIndex(7)
	Powersave(tbl).Start(r2.core)
	if r2.core.OPPIndex() != 0 {
		t.Fatal("powersave did not pin min")
	}
}

func TestOndemandJumpsToMaxUnderLoad(t *testing.T) {
	r := newRig()
	g := NewOndemand()
	r.start(g)
	r.burst(0, 2*sim.Second)
	// After one sampling period of full load the governor must sit at max.
	r.eng.RunUntil(sim.Time(120 * sim.Millisecond))
	if r.core.OPPIndex() != 13 {
		t.Fatalf("ondemand at OPP %d after 120ms of full load, want 13 (jump to max)", r.core.OPPIndex())
	}
}

func TestOndemandDropsWhenIdle(t *testing.T) {
	r := newRig()
	g := NewOndemand()
	r.start(g)
	r.burst(0, 200*sim.Millisecond)
	r.eng.RunUntil(sim.Time(1 * sim.Second))
	if r.core.OPPIndex() != 0 {
		t.Fatalf("ondemand at OPP %d after long idle, want 0", r.core.OPPIndex())
	}
}

func TestOndemandProportionalBelowThreshold(t *testing.T) {
	r := newRig()
	g := NewOndemand()
	r.start(g)
	// ~40% duty cycle: 20ms busy every 50ms at min frequency.
	for i := 0; i < 40; i++ {
		at := sim.Time(i) * sim.Time(50*sim.Millisecond)
		r.eng.AtFunc(at, func() {
			r.core.Submit("w", soc.Cycles(20*300), nil) // 20ms·300cycles/µs... small chunk
		})
	}
	r.eng.RunUntil(sim.Time(2 * sim.Second))
	// Load is light; governor should be in the lower half of the ladder.
	if r.core.OPPIndex() > 7 {
		t.Fatalf("ondemand at OPP %d for light periodic load, want low", r.core.OPPIndex())
	}
}

func TestConservativeStepsGradually(t *testing.T) {
	r := newRig()
	g := NewConservative()
	r.start(g)
	r.burst(0, 3*sim.Second)

	// After the first few samples conservative must NOT be at max.
	r.eng.RunUntil(sim.Time(200 * sim.Millisecond))
	early := r.core.OPPIndex()
	if early == 13 {
		t.Fatal("conservative jumped to max within 200ms; should step smoothly")
	}
	// Eventually it must reach the maximum under sustained full load:
	// 5%-of-max steps every 120ms -> at most ~20 samples.
	r.eng.RunUntil(sim.Time(3 * sim.Second))
	if r.core.OPPIndex() != 13 {
		t.Fatalf("conservative at OPP %d after 3s of full load, want 13", r.core.OPPIndex())
	}
}

func TestConservativeSlowerThanOndemand(t *testing.T) {
	reach := func(g Governor) sim.Duration {
		r := newRig()
		r.start(g)
		r.burst(0, 3*sim.Second)
		var reached sim.Time = -1
		r.core.OnFreqChange = func(at sim.Time, idx int) {
			if idx == 13 && reached < 0 {
				reached = at
			}
		}
		r.eng.RunUntil(sim.Time(3 * sim.Second))
		if reached < 0 {
			t.Fatal("governor never reached max under sustained load")
		}
		return reached.Sub(0)
	}
	tOnd := reach(NewOndemand())
	tCons := reach(NewConservative())
	if tCons <= tOnd*4 {
		t.Fatalf("conservative reached max in %v vs ondemand %v; want much slower ramp", tCons, tOnd)
	}
}

func TestInteractiveInputBoost(t *testing.T) {
	r := newRig()
	g := NewInteractive()
	r.start(g)
	// Input with NO load: frequency must still jump to hispeed immediately.
	r.eng.AtFunc(sim.Time(100*sim.Millisecond), func() {
		g.OnInput(r.eng.Now())
	})
	r.eng.RunUntil(sim.Time(101 * sim.Millisecond))
	hispeed := r.core.Table().IndexAtLeast(g.HispeedKHz)
	if r.core.OPPIndex() != hispeed {
		t.Fatalf("after input boost at OPP %d, want hispeed %d", r.core.OPPIndex(), hispeed)
	}
	// The boost must hold for MinSampleTime even with zero load...
	r.eng.RunUntil(sim.Time(100 * sim.Millisecond).Add(g.MinSampleTime - g.TimerRate))
	if r.core.OPPIndex() < hispeed {
		t.Fatal("boost released before MinSampleTime")
	}
	// ...and decay afterwards.
	r.eng.RunUntil(sim.Time(1 * sim.Second))
	if r.core.OPPIndex() != 0 {
		t.Fatalf("interactive stuck at OPP %d after idle decay", r.core.OPPIndex())
	}
}

// TestInteractiveBoostKeepsPendingRequestUnderCap pins the boost contract on
// the request/arbitrate/apply path: with a thermal cap holding the applied
// OPP below hispeed while the governor's pending request sits at the top,
// an input boost must not overwrite the higher pending request.
func TestInteractiveBoostKeepsPendingRequestUnderCap(t *testing.T) {
	r := newRig()
	g := NewInteractive()
	r.start(g)
	r.burst(0, 2*sim.Second)
	r.eng.RunUntil(sim.Time(300 * sim.Millisecond))
	if r.core.RequestedOPPIndex() != 13 {
		t.Fatalf("pending request %d under sustained load, want 13", r.core.RequestedOPPIndex())
	}
	r.core.SetFreqCap("thermal", 5)
	if r.core.OPPIndex() != 5 {
		t.Fatalf("applied OPP %d under cap, want 5", r.core.OPPIndex())
	}
	g.OnInput(r.eng.Now())
	if r.core.RequestedOPPIndex() != 13 {
		t.Fatalf("input boost lowered the pending request to %d, want 13 preserved", r.core.RequestedOPPIndex())
	}
	r.core.ClearFreqCap("thermal")
	if r.core.OPPIndex() != 13 {
		t.Fatalf("cap lift restored OPP %d, want the governor's request 13", r.core.OPPIndex())
	}
}

func TestInteractiveClimbsToMaxOnSustainedLoad(t *testing.T) {
	r := newRig()
	g := NewInteractive()
	r.start(g)
	r.burst(0, 2*sim.Second)
	r.eng.RunUntil(sim.Time(300 * sim.Millisecond))
	if r.core.OPPIndex() != 13 {
		t.Fatalf("interactive at OPP %d under sustained load, want max", r.core.OPPIndex())
	}
}

func TestInteractiveFasterThanOndemandAfterInput(t *testing.T) {
	// The whole point of interactive: at the instant of user input the
	// frequency is already raised, while ondemand waits for its next sample.
	probe := func(g Governor, input bool) int {
		r := newRig()
		r.start(g)
		at := sim.Time(75 * sim.Millisecond) // between ondemand samples
		r.eng.AtFunc(at, func() {
			if input {
				g.OnInput(r.eng.Now())
			}
			r.core.Submit("ui", soc.Cycles(50_000_000), nil)
		})
		r.eng.RunUntil(at.Add(5 * sim.Millisecond))
		return r.core.OPPIndex()
	}
	ond := probe(NewOndemand(), true) // ondemand ignores OnInput
	inter := probe(NewInteractive(), true)
	if inter <= ond {
		t.Fatalf("interactive OPP %d not above ondemand OPP %d right after input", inter, ond)
	}
}

func TestGovernorNames(t *testing.T) {
	if NewOndemand().Name() != "ondemand" {
		t.Fatal("ondemand name")
	}
	if NewConservative().Name() != "conservative" {
		t.Fatal("conservative name")
	}
	if NewInteractive().Name() != "interactive" {
		t.Fatal("interactive name")
	}
	tbl := power.Snapdragon8074()
	if Performance(tbl).Name() != "performance" || Powersave(tbl).Name() != "powersave" {
		t.Fatal("fixed alias names")
	}
}

func TestLoadMeterBounds(t *testing.T) {
	r := newRig()
	m := &loadMeter{}
	m.reset(r.core)
	m.window = 100 * sim.Millisecond // each sample below spans 100 ms
	// 30M cycles at the min OPP (300 cycles/µs) is exactly 100 ms of work.
	r.core.Submit("w", soc.Cycles(30_000_000), nil)
	r.eng.RunUntil(sim.Time(100 * sim.Millisecond))
	load := m.sample()
	if load < 95 || load > 100 {
		t.Fatalf("full-load sample = %d%%, want ~100", load)
	}
	r.eng.RunUntil(sim.Time(200 * sim.Millisecond))
	if load := m.sample(); load != 0 {
		t.Fatalf("idle sample = %d%%, want 0", load)
	}
}

func BenchmarkOndemandSampling(b *testing.B) {
	r := newRig()
	g := NewOndemand()
	r.start(g)
	r.burst(0, sim.Duration(b.N+1)*100*sim.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.eng.RunUntil(sim.Time(i+1) * sim.Time(100*sim.Millisecond))
	}
}
