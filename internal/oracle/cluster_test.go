package oracle

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

func socModel(t *testing.T) *power.SoCModel {
	t.Helper()
	m, err := power.CalibrateClusters(
		[]string{"little", "big"},
		[]power.Table{power.LittleCortex(), power.Snapdragon8074()},
		[]power.Silicon{power.LittleSilicon(), power.BigSilicon()},
		100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// synthClusterRuns fabricates one placement-pinned run per (cluster, OPP)
// candidate for a three-lag workload: lag CPU tails scale inversely with the
// candidate's clock, and busy curves charge background plus in-lag work.
func synthClusterRuns(t *testing.T, m *power.SoCModel) []ClusterFixedRun {
	t.Helper()
	const window = 60 * sim.Second
	// Lag 0 is CPU-bound (only the big top clocks fit its threshold); lag 2
	// is IO-dominated (io >= ~2x the CPU tail), which is what gives the
	// little ladder's top clocks room inside the 110% threshold.
	lagWork := []sim.Duration{500 * sim.Millisecond, 150 * sim.Millisecond, 500 * sim.Millisecond}
	io := []sim.Duration{0, 100 * sim.Millisecond, 1500 * sim.Millisecond}
	begins := []sim.Time{sim.Time(5 * sim.Second), sim.Time(20 * sim.Second), sim.Time(35 * sim.Second)}

	var runs []ClusterFixedRun
	for ci := range m.Models {
		tbl := m.Cluster(ci).Table
		for idx := range tbl {
			ghz := tbl[idx].GHz()
			p := &core.Profile{Workload: "synth", Config: tbl[idx].Label()}
			bc := trace.NewBusyCurve(100 * sim.Millisecond)
			type span struct{ b, e sim.Time }
			var spans []span
			for i := range lagWork {
				dur := sim.Duration(float64(lagWork[i])/ghz) + io[i]
				p.Lags = append(p.Lags, core.Lag{Index: i, Begin: begins[i], End: begins[i].Add(dur)})
				spans = append(spans, span{begins[i], begins[i].Add(sim.Duration(float64(lagWork[i]) / ghz))})
			}
			var cum sim.Duration
			bgBusy := sim.Duration(float64(10*sim.Millisecond) / ghz)
			for ts := sim.Time(0); ts <= sim.Time(window); ts = ts.Add(100 * sim.Millisecond) {
				step := bgBusy
				for _, s := range spans {
					if ts >= s.b && ts < s.e {
						step = 100 * sim.Millisecond
					}
				}
				cum += step
				bc.AppendSample(cum)
			}
			runs = append(runs, ClusterFixedRun{Cluster: ci, OPPIndex: idx, Profile: p, BusyCurve: bc})
		}
	}
	return runs
}

func TestClusterOracleZeroIrritation(t *testing.T) {
	m := socModel(t)
	o, err := BuildCluster(synthClusterRuns(t, m), m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Irritation(); got != 0 {
		t.Fatalf("cluster oracle irritation = %v, want 0 by construction", got)
	}
}

func TestClusterOracleIsEnergyAware(t *testing.T) {
	m := socModel(t)
	runs := synthClusterRuns(t, m)
	o, err := BuildCluster(runs, m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every chosen candidate satisfies its lag's threshold and charges no
	// more energy than any other satisfying candidate (energy-aware search,
	// not ladder-order search).
	byChoice := make(map[ClusterChoice]ClusterFixedRun)
	for _, r := range runs {
		byChoice[ClusterChoice{r.Cluster, r.OPPIndex}] = r
	}
	for i, ch := range o.PerLag {
		run := byChoice[ch]
		lag := run.Profile.ByIndex()[i]
		if lag.Duration() > o.Thresholds.For(i) {
			t.Errorf("lag %d at %+v exceeds its threshold", i, ch)
		}
		chosenE := m.Cluster(ch.Cluster).DynamicPowerW(ch.OPPIndex) *
			run.BusyCurve.Between(lag.Begin, lag.End).Seconds()
		for alt, r := range byChoice {
			cand, ok := r.Profile.ByIndex()[i]
			if !ok || cand.Duration() > o.Thresholds.For(i) {
				continue
			}
			altE := m.Cluster(alt.Cluster).DynamicPowerW(alt.OPPIndex) *
				r.BusyCurve.Between(cand.Begin, cand.End).Seconds()
			if altE < chosenE-1e-12 {
				t.Errorf("lag %d: candidate %+v costs %.6f J < chosen %+v at %.6f J",
					i, alt, altE, ch, chosenE)
			}
		}
	}
}

func TestClusterOraclePlacement(t *testing.T) {
	m := socModel(t)
	o, err := BuildCluster(synthClusterRuns(t, m), m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The CPU-bound lag 0's threshold is 110% of the fastest candidate (big
	// cluster top clock); the little ladder tops out at 1.40 GHz and cannot
	// meet it, so the lag must be served on the big cluster.
	if ch := o.PerLag[0]; ch.Cluster != 1 {
		t.Errorf("CPU-bound lag 0 on cluster %d, want big (1)", ch.Cluster)
	}
	// The IO-dominated lag 2 has 1.5 s of slack; the low-voltage little
	// silicon charges less per cycle, so energy-aware search parks it there.
	if ch := o.PerLag[2]; ch.Cluster != 0 {
		t.Errorf("IO-heavy lag 2 on cluster %d, want little (0)", ch.Cluster)
	}
	// Outside lags the cheapest whole-workload candidate is a little point.
	if o.Base.Cluster != 0 {
		t.Errorf("base on cluster %d, want little (0)", o.Base.Cluster)
	}
	shares := o.ClusterShares(2)
	if len(shares) != 2 {
		t.Fatalf("%d shares, want 2", len(shares))
	}
	if sum := shares[0] + shares[1]; sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %.3f, want 1", sum)
	}
	if shares[0] == 0 || shares[1] == 0 {
		t.Errorf("shares %+v: expected both clusters chosen for this mix", shares)
	}
}

func TestClusterOracleEnergyBelowSatisfyingCandidates(t *testing.T) {
	m := socModel(t)
	runs := synthClusterRuns(t, m)
	o, err := BuildCluster(runs, m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if core.Irritation(r.Profile, o.Thresholds) != 0 {
			continue
		}
		fixedE := m.Cluster(r.Cluster).DynamicPowerW(r.OPPIndex) * r.BusyCurve.Total().Seconds()
		if fixedE < o.EnergyJ-1e-9 {
			t.Errorf("candidate (cluster %d, OPP %d) satisfies thresholds with %.4f J < oracle %.4f J",
				r.Cluster, r.OPPIndex, fixedE, o.EnergyJ)
		}
	}
}

// TestClusterOracleDeterministic builds the oracle twice, once from whole
// busy curves and once from busy summaries alone (what sweeps keep), and
// requires identical results: deterministic, and one pricing path.
func TestClusterOracleDeterministic(t *testing.T) {
	for _, idle := range []bool{false, true} {
		m := socModel(t)
		if idle {
			m.SetIdleLadder(0, []string{"wfi", "off"}, []float64{0.005, 0.001})
			m.SetIdleLadder(1, []string{"wfi", "off"}, []float64{0.013, 0.003})
		}
		a, err := BuildCluster(synthClusterRuns(t, m), m, 1.10, nil)
		if err != nil {
			t.Fatal(err)
		}
		summarised := synthClusterRuns(t, m)
		for i, r := range summarised {
			summarised[i].Busy = SummarizeBusy(r.BusyCurve, r.Profile)
			summarised[i].BusyCurve = nil
		}
		b, err := BuildCluster(summarised, m, 1.10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("idle %t: oracle from summaries differs from oracle from curves:\n%+v\n%+v", idle, a, b)
		}
	}
}

// TestClusterOracleIdleAwarePricing checks the C-state extension: with
// leakage ladders attached to the model, the oracle's energy grows by the
// idle-floor charge over the un-busy remainder of every window — a faster
// candidate that races to idle now pays to stay parked — and building with
// the same model minus ladders reproduces the pre-idle result exactly.
func TestClusterOracleIdleAwarePricing(t *testing.T) {
	m := socModel(t)
	runs := synthClusterRuns(t, m)
	plain, err := BuildCluster(runs, m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}

	mi := socModel(t)
	mi.SetIdleLadder(0, []string{"wfi", "off"}, []float64{0.005, 0.001})
	mi.SetIdleLadder(1, []string{"wfi", "off"}, []float64{0.013, 0.003})
	priced, err := BuildCluster(synthClusterRuns(t, mi), mi, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if priced.EnergyJ <= plain.EnergyJ {
		t.Errorf("idle-aware oracle energy %.4f J <= leakage-free %.4f J; idle time is still free",
			priced.EnergyJ, plain.EnergyJ)
	}
	if priced.Irritation() != 0 {
		t.Errorf("idle-aware oracle irritation = %v, want 0", priced.Irritation())
	}
	// Re-building against the ladder-free model must be bit-identical to the
	// pre-idle build: the pricing is gated entirely on the model's ladders.
	again, err := BuildCluster(synthClusterRuns(t, m), m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.EnergyJ != plain.EnergyJ || again.Base != plain.Base {
		t.Errorf("ladder-free rebuild diverged: (%v, %.6f) vs (%v, %.6f)",
			again.Base, again.EnergyJ, plain.Base, plain.EnergyJ)
	}
}

func TestClusterOracleErrors(t *testing.T) {
	m := socModel(t)
	if _, err := BuildCluster(nil, m, 1.1, nil); err == nil {
		t.Error("empty runs accepted")
	}
	if _, err := BuildCluster([]ClusterFixedRun{{Cluster: 0, OPPIndex: 0}}, m, 1.1, nil); err == nil {
		t.Error("incomplete run accepted")
	}
	runs := synthClusterRuns(t, m)
	short := runs[0]
	short.Busy = &BusySummary{InLag: make([]sim.Duration, len(short.Profile.Lags)-1)}
	if _, err := BuildCluster([]ClusterFixedRun{short}, m, 1.1, nil); err == nil {
		t.Error("busy summary missing a lag accepted")
	}
	if _, err := BuildCluster(append(runs, runs[0]), m, 1.1, nil); err == nil {
		t.Error("duplicate candidate accepted")
	}
	bad := runs[0]
	bad.Cluster = 9
	if _, err := BuildCluster([]ClusterFixedRun{bad}, m, 1.1, nil); err == nil {
		t.Error("out-of-range cluster accepted")
	}
}
