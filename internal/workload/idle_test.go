package workload

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/trace"
)

// replayHash digests the traces the golden tests pin (per-cluster freq
// points, busy histograms, busy curves, migrations) for equivalence checks.
func replayHash(art *RunArtifacts) string {
	h := sha256.New()
	for ci, ct := range art.Clusters {
		for _, p := range ct.Freq.Points {
			fmt.Fprintf(h, "%d|%d:%d;", ci, p.At, p.OPPIndex)
		}
		for _, d := range art.BusyByCluster[ci] {
			fmt.Fprintf(h, "%d,", d)
		}
		for _, c := range ct.Busy.Cum {
			fmt.Fprintf(h, "%d.", c)
		}
	}
	fmt.Fprintf(h, "m%d", art.Migrations)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestIdleLadderPricesRaceToIdle is the acceptance check for the idle
// subsystem at the replay level: with the default ladder enabled on
// big.LITTLE, a performance pin reports idle residency and non-zero leakage
// energy — race-to-idle is no longer free — while the same replay with the
// ladder disabled carries no idle data at all.
func TestIdleLadderPricesRaceToIdle(t *testing.T) {
	w := Quickstart()
	w.Profile.SoC = soc.WithDefaultIdle(soc.BigLittle44())
	model, err := w.Profile.SoC.Calibrate(0)
	if err != nil {
		t.Fatal(err)
	}
	if !model.HasIdle() {
		t.Fatal("calibrated model of an idle-enabled spec carries no ladders")
	}
	rec, _, err := w.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	mkPerf := func() []governor.Governor {
		var govs []governor.Governor
		for _, cs := range w.Profile.SoC.Clusters {
			govs = append(govs, governor.Performance(cs.Table))
		}
		return govs
	}
	art := ReplayMulti(w, rec, mkPerf(), "performance", 42, false)

	var dyn, leak float64
	for i, ct := range art.Clusters {
		if !ct.Idle.Enabled() {
			t.Fatalf("cluster %s has no idle trace on an idle-enabled spec", ct.Name)
		}
		if ct.Idle.TotalIdle() <= 0 {
			t.Errorf("cluster %s reports no idle residency", ct.Name)
		}
		// Device-level conservation: active + stall + idle == replay window.
		total := ct.Idle.ActiveTime + ct.Idle.StallTime + ct.Idle.TotalIdle()
		if total != art.Window {
			t.Errorf("cluster %s: active %v + stall %v + idle %v = %v, want window %v",
				ct.Name, ct.Idle.ActiveTime, ct.Idle.StallTime, ct.Idle.TotalIdle(), total, art.Window)
		}
		e, err := model.ClusterEnergy(i, art.BusyByCluster[i])
		if err != nil {
			t.Fatal(err)
		}
		dyn += e
		le, err := model.IdleEnergy(i, ct.Idle.Residency)
		if err != nil {
			t.Fatal(err)
		}
		leak += le
	}
	if leak <= 0 {
		t.Errorf("performance pin leaked %.4f J, want > 0 (idle must be priced)", leak)
	}
	if dyn <= 0 {
		t.Error("performance pin reports no dynamic energy")
	}

	// The ladder-disabled control: no idle traces, and the plain big.LITTLE
	// spec behaves exactly as the golden tests pin elsewhere.
	wOff := Quickstart()
	wOff.Profile.SoC = soc.BigLittle44()
	recOff, _, err := wOff.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	artOff := ReplayMulti(wOff, recOff, []governor.Governor{
		governor.Performance(wOff.Profile.SoC.Clusters[0].Table),
		governor.Performance(wOff.Profile.SoC.Clusters[1].Table),
	}, "performance", 42, false)
	for _, ct := range artOff.Clusters {
		if ct.Idle.Enabled() {
			t.Errorf("cluster %s carries idle data with the ladder disabled", ct.Name)
		}
	}
}

// TestTraceScratchRecycling pins the ClusterTraces recycling plumbed through
// Device.SetTraceScratch: a replay that reuses a previous replay's trace
// storage produces bit-identical traces in the very same backing objects.
func TestTraceScratchRecycling(t *testing.T) {
	w := Quickstart()
	w.Profile.SoC = soc.BigLittle44()
	rec, _, err := w.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []governor.Governor {
		return []governor.Governor{governor.NewOndemand(), governor.NewOndemand()}
	}
	fresh := ReplayMulti(w, rec, mk(), "ondemand", 42, false)
	want := replayHash(fresh)
	// scratched replays rec on a fresh session of w whose device recycles
	// ts.
	scratched := func(w *Workload, rec *Recording, ts []*trace.ClusterTraces, govs []governor.Governor, name string) *RunArtifacts {
		sess := NewReplaySession(w, rec)
		sess.Dev.SetTraceScratch(ts)
		return sess.Replay(govs, name, 42, false)
	}

	// Hand the first replay's traces back as scratch for a second replay of
	// a different configuration (interactive), then a third back at
	// ondemand: content must match the fresh runs and the backing objects
	// must be the recycled ones.
	mid := scratched(w, rec, fresh.Clusters, []governor.Governor{governor.NewInteractive(), governor.NewInteractive()}, "interactive")
	for i, ct := range mid.Clusters {
		if ct != fresh.Clusters[i] {
			t.Fatalf("cluster %d traces were reallocated instead of recycled", i)
		}
	}

	again := scratched(w, rec, mid.Clusters, mk(), "ondemand")
	if got := replayHash(again); got != want {
		t.Errorf("recycled replay hash = %s, fresh = %s", got, want)
	}

	// A single-cluster boot must also recycle a (longer) multi-cluster
	// scratch set by index, renaming the reused entry.
	single := Quickstart()
	single.Profile.SoC = soc.Spec{Name: "little-only", Clusters: []soc.ClusterSpec{soc.BigLittle44().Clusters[0]}}
	recS, _, err := single.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	freshS := ReplayMulti(single, recS, []governor.Governor{governor.NewOndemand()}, "ondemand", 42, false)
	wantS := replayHash(freshS)
	gotS := scratched(single, recS, again.Clusters, []governor.Governor{governor.NewOndemand()}, "ondemand")
	if gotS.Clusters[0] != again.Clusters[0] {
		t.Error("single-cluster boot did not recycle the scratch entry")
	}
	if gotS.Clusters[0].Name != "little" {
		t.Errorf("recycled trace name = %q, want %q", gotS.Clusters[0].Name, "little")
	}
	if h := replayHash(gotS); h != wantS {
		t.Errorf("recycled single-cluster hash = %s, fresh = %s", h, wantS)
	}

	// Busy storage alone, the way sweeps recycle it for runs that keep their
	// traces: the aggregate curve and the per-cluster grids of one replay
	// back the next one's, whose traces are otherwise fresh.
	sess := NewReplaySession(w, rec)
	prev := sess.Replay([]governor.Governor{governor.NewInteractive(), governor.NewInteractive()}, "interactive", 7, false)
	curve, curveArr := prev.BusyCurve, &prev.BusyCurve.Cum[0]
	var grids [][]sim.Duration
	for _, ct := range prev.Clusters {
		grids = append(grids, ct.Busy.Cum)
	}
	sess.Dev.SetBusyScratch(curve)
	sess.Dev.SetGridScratch(grids)
	busyOnly := sess.Replay(mk(), "ondemand", 42, false)
	if got := replayHash(busyOnly); got != want {
		t.Errorf("busy-recycled replay hash = %s, fresh = %s", got, want)
	}
	if !slices.Equal(busyOnly.BusyCurve.Cum, fresh.BusyCurve.Cum) {
		t.Error("busy-recycled aggregate curve differs from the fresh one")
	}
	if busyOnly.BusyCurve != curve || &busyOnly.BusyCurve.Cum[0] != curveArr {
		t.Error("aggregate busy curve was reallocated instead of recycled")
	}
	for i, ct := range busyOnly.Clusters {
		if ct == prev.Clusters[i] {
			t.Errorf("cluster %d traces were recycled with only busy storage handed back", i)
		}
		if &ct.Busy.Cum[0] != &grids[i][0] {
			t.Errorf("cluster %d busy grid was reallocated instead of recycled", i)
		}
	}
}

// TestIdleWindowReplayDuration sanity-checks that the idle snapshot is taken
// at the end of the replay window, not at the last event: the counters must
// cover the whole window even though the device goes quiet after the last
// input.
func TestIdleWindowReplayDuration(t *testing.T) {
	w := Quickstart()
	w.Profile.SoC = soc.WithDefaultIdle(soc.Dragonboard())
	rec, _, err := w.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	art := Replay(w, rec, governor.NewOndemand(), "ondemand", 7, false)
	ct := art.Clusters[0]
	if !ct.Idle.Enabled() {
		t.Fatal("no idle trace on the idle-enabled Dragonboard")
	}
	if total := ct.Idle.ActiveTime + ct.Idle.StallTime + ct.Idle.TotalIdle(); total != art.Window {
		t.Errorf("idle accounting covers %v of the %v window", total, art.Window)
	}
}
