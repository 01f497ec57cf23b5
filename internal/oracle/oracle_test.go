package oracle

import (
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
)

// paperModel is the paper's single-cluster Dragonboard model: one Krait
// ladder, the configuration every figure of the evaluation uses.
func paperModel(t *testing.T) *power.SoCModel {
	t.Helper()
	m, err := power.CalibrateClusters([]string{"krait"}, []power.Table{power.Snapdragon8074()},
		[]power.Silicon{power.DefaultSilicon()}, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOracleZeroIrritation(t *testing.T) {
	m := paperModel(t)
	o, err := BuildCluster(synthClusterRuns(t, m), m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Irritation(); got != 0 {
		t.Fatalf("oracle irritation = %v, want 0 by construction", got)
	}
}

func TestOracleBaseIsEnergyOptimalFixed(t *testing.T) {
	m := paperModel(t)
	o, err := BuildCluster(synthClusterRuns(t, m), m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With busy time scaling inversely with frequency, the base must land on
	// the energy-per-cycle plateau around the 0.96 GHz optimum (0.88–1.04
	// differ by <1% and sampling quantisation can pick either neighbour).
	if got := m.Cluster(0).Table[o.Base.OPPIndex].Label(); got != "0.88 GHz" && got != "0.96 GHz" && got != "1.04 GHz" {
		t.Errorf("base OPP = %s, want on the 0.88-1.04 GHz plateau", got)
	}
}

// TestOracleIOHeavyLagRunsLower checks the per-lag choices on the paper's
// ladder: the CPU-bound lag 0's threshold is 110% of the fastest run, so it
// needs the top of the ladder, while the IO-dominated lag 2 has slack and
// runs far lower.
func TestOracleIOHeavyLagRunsLower(t *testing.T) {
	m := paperModel(t)
	o, err := BuildCluster(synthClusterRuns(t, m), m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.PerLag[0].OPPIndex < 10 {
		t.Errorf("CPU-bound lag 0 at OPP %d, want near the top of the ladder", o.PerLag[0].OPPIndex)
	}
	if o.PerLag[2].OPPIndex >= o.PerLag[0].OPPIndex {
		t.Errorf("IO-heavy lag 2 at OPP %d, CPU-bound lag 0 at OPP %d: want 2 below 0",
			o.PerLag[2].OPPIndex, o.PerLag[0].OPPIndex)
	}
}

func TestOracleEnergyBelowAllSatisfyingFixed(t *testing.T) {
	m := paperModel(t)
	runs := synthClusterRuns(t, m)
	o, err := BuildCluster(runs, m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Any fixed frequency that satisfies every threshold must use at least
	// as much energy as the oracle (the oracle is optimal within the
	// composition space, which includes all-one-frequency profiles).
	for _, r := range runs {
		if core.Irritation(r.Profile, o.Thresholds) != 0 {
			continue
		}
		fixedE := m.Cluster(0).DynamicPowerW(r.OPPIndex) * r.BusyCurve.Total().Seconds()
		if fixedE < o.EnergyJ-1e-9 {
			t.Errorf("fixed %s satisfies thresholds with %.4f J < oracle %.4f J",
				m.Cluster(0).Table[r.OPPIndex].Label(), fixedE, o.EnergyJ)
		}
	}
}

// TestOracleHCIOverride pins the override path the HCI-class ablation uses:
// explicit thresholds replace the relative rule, the oracle meets them, and
// a looser deadline never costs more energy.
func TestOracleHCIOverride(t *testing.T) {
	m := paperModel(t)
	loose := core.UniformThresholds(12 * sim.Second)
	o, err := BuildCluster(synthClusterRuns(t, m), m, 0, &loose)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Thresholds.For(0); got != 12*sim.Second {
		t.Errorf("override threshold %v, want 12s", got)
	}
	if o.Irritation() != 0 {
		t.Errorf("oracle irritates under its override thresholds: %v", o.Irritation())
	}
	tight, err := BuildCluster(synthClusterRuns(t, m), m, 1.10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.EnergyJ > tight.EnergyJ {
		t.Errorf("loose-threshold oracle %.4f J > tight oracle %.4f J", o.EnergyJ, tight.EnergyJ)
	}
}
