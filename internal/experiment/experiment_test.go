package experiment

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/workload"
)

// quickResult runs the paper's study — the matrix on Dragonboard — on the
// quickstart workload.
func quickResult(t *testing.T, reps int) *MatrixResult {
	t.Helper()
	res, err := RunMatrix(workload.Quickstart(), soc.Dragonboard(), Options{Reps: reps, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQuickstartMatrix(t *testing.T) {
	res := quickResult(t, 2)

	if got := len(res.Configs); got != 17 {
		t.Fatalf("configurations = %d, want 17 (14 fixed + 3 governors)", got)
	}
	for _, cfg := range res.Configs {
		if len(res.Runs[cfg.Name]) != 2 {
			t.Fatalf("%s: %d runs, want 2", cfg.Name, len(res.Runs[cfg.Name]))
		}
	}

	// Oracle invariants: zero irritation by construction, energy strictly
	// below the fastest fixed configuration.
	for _, o := range res.Oracles {
		if o.Irritation() != 0 {
			t.Errorf("oracle irritation = %v, want 0", o.Irritation())
		}
		if o.Base.OPPIndex < 3 || o.Base.OPPIndex > 8 {
			t.Errorf("oracle base OPP = %d (%s), want a mid frequency (race-to-idle)",
				o.Base.OPPIndex, res.Model.Cluster(0).Table[o.Base.OPPIndex].Label())
		}
	}
	fastest := res.Model.Cluster(0).Table[len(res.Model.Cluster(0).Table)-1].Label()
	if res.OracleEnergyJ >= res.MeanEnergyJ(fastest) {
		t.Errorf("oracle energy %.3f J >= fastest fixed %.3f J", res.OracleEnergyJ, res.MeanEnergyJ(fastest))
	}

	// Irritation shrinks as fixed frequency grows (paper Fig. 12 left), and
	// is zero at the fastest frequency by the threshold construction.
	irr030 := res.MeanIrritation("0.30 GHz")
	irr096 := res.MeanIrritation("0.96 GHz")
	irr215 := res.MeanIrritation("2.15 GHz")
	if !(irr030 > irr096 && irr096 >= irr215) {
		t.Errorf("irritation not decreasing: 0.30=%v 0.96=%v 2.15=%v", irr030, irr096, irr215)
	}
	if irr215 > 200*sim.Millisecond {
		t.Errorf("fastest-frequency irritation = %v, want ~0", irr215)
	}

	// Input classification must see the quickstart's 7 gestures.
	taps, swipes, actual, spurious := res.InputClassification()
	if taps+swipes != 7 || actual != 6 || spurious != 1 {
		t.Errorf("classification: taps=%d swipes=%d actual=%d spurious=%d", taps, swipes, actual, spurious)
	}

	// Sweep runs keep busy summaries, not busy curves.
	for _, cfg := range res.Configs {
		for _, r := range res.Runs[cfg.Name] {
			if r.Busy == nil || len(r.ClusterBusy) != 1 || r.BusyCurve != nil || len(r.Clusters[0].Busy.Cum) != 0 {
				t.Fatalf("%s rep %d: busy summary %v, %d cluster totals, curve %v, %d grid samples kept",
					cfg.Name, r.Rep, r.Busy != nil, len(r.ClusterBusy), r.BusyCurve != nil, len(r.Clusters[0].Busy.Cum))
			}
		}
	}

	// A warm worker's next run samples into the busy storage the previous
	// run handed back: the aggregate curve and every grid keep their
	// backing arrays.
	_, s, err := prepareMatrix(workload.Quickstart(), soc.Dragonboard(), Options{Reps: 1, Seed: 3}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	scratch := newReplayScratch()
	if _, err := s.executeRun(res.Workload, res.Configs[0], 0, 1, scratch); err != nil {
		t.Fatal(err)
	}
	curve, curveArr := scratch.busy, &scratch.busy.Cum[0]
	var gridArrs []*sim.Duration
	for _, g := range scratch.grids {
		gridArrs = append(gridArrs, &g[0])
	}
	if _, err := s.executeRun(res.Workload, res.Configs[len(res.Configs)-1], 0, 2, scratch); err != nil {
		t.Fatal(err)
	}
	if scratch.busy != curve || &scratch.busy.Cum[0] != curveArr {
		t.Error("second run allocated a new aggregate busy curve")
	}
	if len(scratch.grids) != len(gridArrs) {
		t.Fatalf("%d grids recycled after the second run, want %d", len(scratch.grids), len(gridArrs))
	}
	for i, g := range scratch.grids {
		if &g[0] != gridArrs[i] {
			t.Errorf("second run allocated a new busy grid for cluster %d", i)
		}
	}
}

func TestGovernorOrderingOnQuickstart(t *testing.T) {
	res := quickResult(t, 2)
	// Conservative must be the most irritating governor; interactive and
	// ondemand near the oracle (paper Fig. 14 bottom).
	cons := res.MeanIrritation("conservative")
	inter := res.MeanIrritation("interactive")
	ond := res.MeanIrritation("ondemand")
	if cons <= inter || cons <= ond {
		t.Errorf("conservative (%v) should irritate more than interactive (%v) and ondemand (%v)", cons, inter, ond)
	}
	// Conservative must use the least energy of the three governors (paper:
	// 8% below even the oracle on average).
	ce, ie, oe := res.NormEnergy("conservative"), res.NormEnergy("interactive"), res.NormEnergy("ondemand")
	if ce >= ie || ce >= oe {
		t.Errorf("conservative energy (%.2f) should undercut interactive (%.2f) and ondemand (%.2f)", ce, ie, oe)
	}
}

func TestEnergyUShapeOverFixedFrequencies(t *testing.T) {
	res := quickResult(t, 1)
	tbl := res.Model.Cluster(0).Table
	// The energy-optimal fixed frequency must be in the middle of the
	// ladder, and the top must cost much more (race-to-idle, Fig. 12 right).
	best, bestE := -1, 0.0
	for i := range tbl {
		e := res.MeanEnergyJ(tbl[i].Label())
		if best < 0 || e < bestE {
			best, bestE = i, e
		}
	}
	if best < 3 || best > 8 {
		t.Errorf("energy-optimal fixed frequency = %s, want mid-ladder", tbl[best].Label())
	}
	top := res.MeanEnergyJ(tbl[len(tbl)-1].Label())
	if top < 1.4*bestE {
		t.Errorf("2.15 GHz energy %.3f J not well above optimum %.3f J", top, bestE)
	}
}
