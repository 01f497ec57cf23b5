package device

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/governor"
	"repro/internal/netproxy"
	"repro/internal/sim"
)

// playGame boots a device, launches the game, plays for the given span, and
// returns the game app for jank inspection.
func playGame(t *testing.T, gov governor.Governor, span sim.Duration) *apps.RetroRunner {
	t.Helper()
	eng := sim.NewEngine()
	d := New(eng, 5, gov, Profile{Telemetry: true})
	r, ok := d.Launcher().IconRect(apps.RetroRunnerName)
	if !ok {
		t.Fatal("game icon missing")
	}
	cx, cy := r.Center()
	tapAt(d, sim.Time(sim.Second), cx, cy)
	eng.RunUntil(sim.Time(20 * sim.Second)) // cold launch settles
	if d.Foreground().Name() != apps.RetroRunnerName {
		t.Fatal("game not in foreground")
	}
	px, py := apps.GamePlayButton.Center()
	tapAt(d, sim.Time(21*sim.Second), px, py)
	eng.RunUntil(sim.Time(25 * sim.Second).Add(span))
	sx, sy := apps.GameStopButton.Center()
	tapAt(d, sim.Time(25*sim.Second).Add(span), sx, sy)
	eng.RunUntil(sim.Time(27 * sim.Second).Add(span))
	g, okApp := d.App(apps.RetroRunnerName).(*apps.RetroRunner)
	if !okApp {
		t.Fatal("game type assertion failed")
	}
	return g
}

func TestJankDecreasesWithFrequency(t *testing.T) {
	// The paper's future-work jank workload: frames dropped when the
	// processor cannot keep up. At the lowest OPP the 18M-cycle frames far
	// exceed the 33ms budget; at the top OPP they are comfortable.
	span := 10 * sim.Second
	low := playGame(t, governor.NewFixed(powerTable(), 0), span)
	mid := playGame(t, governor.NewFixed(powerTable(), 5), span)
	high := playGame(t, governor.NewFixed(powerTable(), 13), span)

	if low.TotalFrames < 200 {
		t.Fatalf("game ran only %d frames", low.TotalFrames)
	}
	if low.JankRatio() < 0.5 {
		t.Errorf("jank at 0.30 GHz = %.2f, want heavy (>0.5)", low.JankRatio())
	}
	if high.JankRatio() > 0.02 {
		t.Errorf("jank at 2.15 GHz = %.2f, want ~0", high.JankRatio())
	}
	if !(low.JankRatio() > mid.JankRatio() && mid.JankRatio() >= high.JankRatio()) {
		t.Errorf("jank not decreasing: %.2f, %.2f, %.2f",
			low.JankRatio(), mid.JankRatio(), high.JankRatio())
	}
}

func TestJankUnderGovernors(t *testing.T) {
	span := 10 * sim.Second
	ond := playGame(t, governor.NewOndemand(), span)
	cons := playGame(t, governor.NewConservative(), span)
	// Ondemand ramps within one sample and keeps up; conservative spends
	// the whole ramp dropping frames.
	if ond.JankRatio() > 0.15 {
		t.Errorf("ondemand jank = %.2f, want low", ond.JankRatio())
	}
	if cons.JankRatio() <= ond.JankRatio() {
		t.Errorf("conservative jank (%.2f) should exceed ondemand (%.2f)",
			cons.JankRatio(), ond.JankRatio())
	}
}

func TestQoEAwareGovernorBehaviour(t *testing.T) {
	eng := sim.NewEngine()
	g := governor.NewQoEAware()
	d := New(eng, 3, g, DefaultProfile())

	// Idle: bottom of the ladder.
	eng.RunUntil(sim.Time(500 * sim.Millisecond))
	if d.SoC.Cluster(0).OPPIndex() != 0 {
		t.Fatalf("idle OPP = %d", d.SoC.Cluster(0).OPPIndex())
	}

	// Input boost: straight to the boost OPP before any load shows.
	r, _ := d.Launcher().IconRect(apps.GalleryName)
	cx, cy := r.Center()
	tapAt(d, sim.Time(sim.Second), cx, cy)
	eng.RunUntil(sim.Time(sim.Second).Add(2 * sim.Millisecond))
	if d.SoC.Cluster(0).OPPIndex() != g.BoostIdx {
		t.Fatalf("after input OPP = %d, want boost %d", d.SoC.Cluster(0).OPPIndex(), g.BoostIdx)
	}

	// After the launch settles and only background work remains, the clock
	// parks at the efficient OPP or below — never chases the maximum.
	eng.RunUntil(sim.Time(60 * sim.Second))
	if idx := d.SoC.Cluster(0).OPPIndex(); idx > g.EfficientIdx {
		t.Fatalf("background OPP = %d, want <= efficient %d", idx, g.EfficientIdx)
	}
}

func TestQoEAwareLearnBoost(t *testing.T) {
	g := governor.NewQoEAware()
	perLag := map[int]int{0: 3, 1: 3, 2: 5, 3: 12, 4: 12, 5: 12, 6: 12, 7: 12, 8: 12, 9: 13}
	g.LearnBoost(perLag, 0.9)
	if g.BoostIdx != 12 {
		t.Fatalf("learned boost = %d, want 12 (90th percentile)", g.BoostIdx)
	}
	g.LearnBoost(perLag, 1.0)
	if g.BoostIdx != 13 {
		t.Fatalf("learned boost = %d, want 13 (max)", g.BoostIdx)
	}
	g.LearnBoost(nil, 0.9) // no-op
	if g.BoostIdx != 13 {
		t.Fatal("empty learn changed boost")
	}
}

func TestNetProxyMakesIODeterministic(t *testing.T) {
	run := func(seed uint64, proxy *netproxy.Proxy) sim.Duration {
		eng := sim.NewEngine()
		prof := DefaultProfile()
		prof.NetProxy = proxy
		d := New(eng, seed, governor.NewInteractive(), prof)
		r, _ := d.Launcher().IconRect(apps.PulseNewsName)
		cx, cy := r.Center()
		tapAt(d, sim.Time(sim.Second), cx, cy)
		// Refresh triggers a network fetch.
		eng.RunUntil(sim.Time(30 * sim.Second))
		fx, fy := apps.PulseRefreshButton.Center()
		tapAt(d, sim.Time(31*sim.Second), fx, fy)
		eng.RunUntil(sim.Time(60 * sim.Second))
		gts := d.GroundTruths()
		last := gts[len(gts)-1]
		if !last.Complete || last.Label != "pulsenews.refresh" {
			t.Fatalf("refresh did not complete: %+v", last)
		}
		return last.CompleteTime.Sub(last.InputTime)
	}

	// Record once, then two replays with different seeds: with the proxy
	// the IO component is identical; without it the seeds disagree.
	rec := netproxy.New(netproxy.Record)
	run(1, rec)
	if rec.AccessCount() == 0 {
		t.Fatal("proxy recorded no accesses")
	}
	a := run(2, rec.ReplayCopy())
	b := run(3, rec.ReplayCopy())
	noProxyA := run(2, nil)
	noProxyB := run(3, nil)
	diffProxy := a - b
	if diffProxy < 0 {
		diffProxy = -diffProxy
	}
	diffPlain := noProxyA - noProxyB
	if diffPlain < 0 {
		diffPlain = -diffPlain
	}
	// CPU work jitter (2%) remains in both; IO jitter (8% of a 420ms fetch)
	// only without the proxy. The proxy run must be markedly tighter.
	if diffProxy >= diffPlain {
		t.Errorf("proxy lag spread %v not below plain spread %v", diffProxy, diffPlain)
	}

	// One replay proxy serving two cold boots in a row: every boot rewinds
	// it, so the second replays the recording from its first access instead
	// of resuming where the first boot left the cursors.
	shared := rec.ReplayCopy()
	if first, second := run(2, shared), run(2, shared); second != first {
		t.Errorf("second boot on one replay proxy: refresh lag %v, first boot %v", second, first)
	}
}
