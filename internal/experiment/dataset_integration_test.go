package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/workload"
)

// TestDataset01FullMatrix runs the real Table I workload through the paper's
// complete per-dataset pipeline (record, annotate, 17 configurations, oracle)
// and checks every shape claim of the evaluation on it.
func TestDataset01FullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset matrix")
	}
	res, err := RunMatrix(workload.Dataset01(), soc.Dragonboard(), Options{Reps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Model.Cluster(0).Table

	// Irritation decreases monotonically over fixed frequencies (Fig. 12).
	prev := sim.Duration(1 << 62)
	for i := range tbl {
		irr := res.MeanIrritation(tbl[i].Label())
		if irr > prev {
			t.Errorf("irritation rose from %v to %v at %s", prev, irr, tbl[i].Label())
		}
		prev = irr
	}
	if top := res.MeanIrritation(tbl[len(tbl)-1].Label()); top > 100*sim.Millisecond {
		t.Errorf("fastest-frequency irritation %v, want ~0", top)
	}

	// Energy is U-shaped with a mid-ladder optimum and an expensive top.
	bestIdx, bestE := 0, res.MeanEnergyJ(tbl[0].Label())
	for i := 1; i < len(tbl); i++ {
		if e := res.MeanEnergyJ(tbl[i].Label()); e < bestE {
			bestIdx, bestE = i, e
		}
	}
	if bestIdx < 3 || bestIdx > 8 {
		t.Errorf("energy-optimal fixed frequency %s, want mid-ladder", tbl[bestIdx].Label())
	}
	if res.NormEnergy(tbl[len(tbl)-1].Label()) < 1.25 {
		t.Errorf("2.15 GHz normalised energy %.2f, want well above oracle", res.NormEnergy(tbl[len(tbl)-1].Label()))
	}

	// Governor characterisation (Fig. 14): conservative cheapest and most
	// irritating; interactive/ondemand near-oracle irritation with an
	// energy premium; oracle zero irritation.
	if !(res.NormEnergy("conservative") < res.NormEnergy("interactive") &&
		res.NormEnergy("conservative") < res.NormEnergy("ondemand")) {
		t.Error("conservative is not the cheapest governor")
	}
	if !(res.MeanIrritation("conservative") > 10*res.MeanIrritation("interactive") &&
		res.MeanIrritation("conservative") > 10*res.MeanIrritation("ondemand")) {
		t.Error("conservative is not dramatically more irritating")
	}
	for _, g := range []string{"interactive", "ondemand"} {
		if res.MeanIrritation(g) > 2*sim.Second {
			t.Errorf("%s irritation %v, want <2s (paper: <1s above oracle)", g, res.MeanIrritation(g))
		}
		if res.NormEnergy(g) < 1.05 || res.NormEnergy(g) > 1.5 {
			t.Errorf("%s energy %.2fx oracle, want a 5-50%% premium", g, res.NormEnergy(g))
		}
	}
	for _, o := range res.Oracles {
		if o.Irritation() != 0 {
			t.Errorf("oracle irritation %v", o.Irritation())
		}
		if got := tbl[o.Base.OPPIndex].Label(); got != "0.88 GHz" && got != "0.96 GHz" && got != "1.04 GHz" {
			t.Errorf("oracle base %s, want the race-to-idle plateau", got)
		}
	}

	// Every profile is internally consistent and has the same lag count.
	want := -1
	for cfg, runs := range res.Runs {
		for _, r := range runs {
			if err := r.Profile.Validate(); err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			if want < 0 {
				want = len(r.Profile.Lags)
			}
			if len(r.Profile.Lags) != want {
				t.Fatalf("%s: %d lags, want %d (the paper relies on identical lag counts)", cfg, len(r.Profile.Lags), want)
			}
		}
	}

	// Thresholds honour the 110% rule: no lag of the fastest config is
	// irritating under them.
	fast := res.Runs[tbl[len(tbl)-1].Label()]
	for _, r := range fast {
		if core.Irritation(r.Profile, res.Thresholds) != 0 {
			t.Error("fastest configuration irritates under the dataset thresholds")
		}
	}
}
