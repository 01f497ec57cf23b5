package experiment

import (
	"testing"

	"repro/internal/power"
	"repro/internal/soc"
	"repro/internal/workload"
)

func TestMatrixConfigsShapes(t *testing.T) {
	// Single-cluster: exactly the paper's 17 configurations.
	dragon := MatrixConfigs(soc.Dragonboard())
	if got, want := len(dragon), len(power.Snapdragon8074())+3; got != want {
		t.Fatalf("%d Dragonboard configs, want %d", got, want)
	}
	// Two-cluster: the 17 plus the mixed per-cluster arms.
	bl := MatrixConfigs(soc.BigLittle44())
	if got, want := len(bl), len(power.Snapdragon8074())+3+len(MixedArms); got != want {
		t.Fatalf("%d big.LITTLE configs, want %d", got, want)
	}
	seen := make(map[string]bool)
	for _, c := range bl {
		if seen[c.Name] {
			t.Fatalf("duplicate config %q", c.Name)
		}
		seen[c.Name] = true
	}
	for _, arm := range MixedArms {
		name := arm[0] + "/" + arm[1]
		if !seen[name] {
			t.Fatalf("mixed arm %q missing from matrix", name)
		}
		if !IsMixedArm(name) {
			t.Fatalf("IsMixedArm(%q) = false", name)
		}
	}
	if IsMixedArm("interactive") {
		t.Fatal("IsMixedArm(interactive) = true")
	}
	// Every mixed arm builds one governor per cluster.
	prof := workload.Quickstart().Profile
	prof.SoC = soc.BigLittle44()
	for _, c := range bl {
		govs, err := c.Governors(prof)
		if err != nil {
			t.Fatalf("config %q: %v", c.Name, err)
		}
		if len(govs) != 2 {
			t.Fatalf("config %q built %d governors, want 2", c.Name, len(govs))
		}
		for i, g := range govs {
			if g == nil {
				t.Fatalf("config %q governor %d is nil", c.Name, i)
			}
		}
	}
}

// TestBigLittleMatrixSweep is the tentpole acceptance test: the full config
// matrix swept on BigLittle44 with per-cluster governor arms and the
// energy-aware cluster oracle.
func TestBigLittleMatrixSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full big.LITTLE matrix")
	}
	spec := soc.BigLittle44()
	w := workload.Quickstart()
	res, err := RunMatrix(w, spec, Options{Reps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Every matrix config ran Reps times.
	for _, cfg := range res.Configs {
		if got := len(res.Runs[cfg.Name]); got != 2 {
			t.Errorf("%s: %d runs, want 2", cfg.Name, got)
		}
	}
	// The candidate space covers every (cluster, OPP) pair, per rep.
	wantCands := len(power.LittleCortex()) + len(power.Snapdragon8074())
	if len(res.Candidates) != 2 {
		t.Fatalf("%d candidate reps, want 2", len(res.Candidates))
	}
	for rep, cands := range res.Candidates {
		if len(cands) != wantCands {
			t.Fatalf("rep %d: %d candidates, want %d", rep, len(cands), wantCands)
		}
	}

	// One oracle per rep, zero irritation by construction, and an energy
	// no higher than any matrix configuration that satisfies the
	// thresholds (the oracle searches a superset of placements).
	if len(res.Oracles) != 2 {
		t.Fatalf("%d oracles, want 2", len(res.Oracles))
	}
	for rep, o := range res.Oracles {
		if o.Irritation() != 0 {
			t.Errorf("oracle rep %d irritation %v, want 0", rep, o.Irritation())
		}
	}
	if res.OracleEnergyJ <= 0 {
		t.Fatal("oracle energy is zero")
	}

	// Cluster shares: both report per-cluster fractions summing to ~1.
	shares := res.OracleClusterShares()
	if len(shares) != 2 {
		t.Fatalf("%d oracle shares, want 2", len(shares))
	}
	if sum := shares[0] + shares[1]; sum < 0.999 || sum > 1.001 {
		t.Errorf("oracle shares sum %.3f, want 1", sum)
	}
	for _, cfg := range []string{"interactive", "powersave/interactive"} {
		bs := res.ClusterBusyShare(cfg)
		if sum := bs[0] + bs[1]; sum < 0.999 || sum > 1.001 {
			t.Errorf("%s busy shares sum %.3f, want 1", cfg, sum)
		}
	}

	// Irritation decreases monotonically over the fixed ladder, and the
	// mixed arm freezing the big cluster at max must not be more irritating
	// than freezing everything at the little-translated minimum.
	tbl := power.Snapdragon8074()
	if res.MeanIrritation(tbl[0].Label()) < res.MeanIrritation(tbl[len(tbl)-1].Label()) {
		t.Error("fixed-ladder irritation not decreasing")
	}
	// The homogeneous interactive arm serves QoE on the heterogeneous
	// platform (per-core load metering: a saturated core reads 100%).
	if irr := res.MeanIrritation("interactive"); irr.Seconds() > 2.0 {
		t.Errorf("interactive irritation %v, want < 2s", irr)
	}
}

// TestDragonboardMatrixReusesFixedRuns pins the single-cluster degeneration:
// on the Dragonboard spec the oracle candidates are the fixed matrix runs
// themselves (no extra replays), and the sweep mirrors the paper's study.
func TestDragonboardMatrixReusesFixedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full Dragonboard matrix")
	}
	res, err := RunMatrix(workload.Quickstart(), soc.Dragonboard(), Options{Reps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := power.Snapdragon8074()
	if len(res.Candidates[0]) != len(tbl) {
		t.Fatalf("%d candidates, want %d", len(res.Candidates[0]), len(tbl))
	}
	for oi, cand := range res.Candidates[0] {
		if cand.Cluster != 0 || cand.OPPIndex != oi {
			t.Fatalf("candidate %d = (%d,%d), want (0,%d)", oi, cand.Cluster, cand.OPPIndex, oi)
		}
		// Reused, not re-replayed: same Profile pointer as the fixed run.
		if cand.Profile != res.Runs[tbl[oi].Label()][0].Profile {
			t.Fatalf("candidate %d did not reuse the fixed run artefacts", oi)
		}
	}
	for _, o := range res.Oracles {
		if o.Irritation() != 0 {
			t.Errorf("oracle irritation %v, want 0", o.Irritation())
		}
		if o.Base.Cluster != 0 {
			t.Errorf("base cluster %d on a single-cluster spec", o.Base.Cluster)
		}
	}
}
