package experiment_test

import (
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/population"
	"repro/internal/report"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// TestPopulationSizeOneBitIdentical pins the degenerate population: one
// unit, zero model, same seed — bit-identical to a direct RunMatrix (run
// records and summary compared marshalled).
func TestPopulationSizeOneBitIdentical(t *testing.T) {
	sel := []string{"0.30 GHz", "2.15 GHz", "ondemand"}
	opts := experiment.Options{Reps: 2, Seed: 11, Configs: sel}

	direct, err := experiment.RunMatrix(workload.Quickstart(), soc.Dragonboard(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns, _ := json.Marshal(report.MatrixRunRecords(direct))
	wantSum, _ := json.Marshal(report.NewMatrixSummary(direct))

	var unitRes *experiment.MatrixResult
	popRes, err := experiment.RunPopulation(workload.Quickstart(), soc.Dragonboard(),
		experiment.PopulationOptions{
			Options: opts,
			Units:   1,
			OnUnit:  func(_ int, res *experiment.MatrixResult) { unitRes = res },
		})
	if err != nil {
		t.Fatal(err)
	}
	if unitRes == nil {
		t.Fatal("OnUnit never fired")
	}
	gotRuns, _ := json.Marshal(report.MatrixRunRecords(unitRes))
	gotSum, _ := json.Marshal(report.NewMatrixSummary(unitRes))
	if string(gotRuns) != string(wantRuns) {
		t.Errorf("size-1 population runs differ from RunMatrix:\ndirect: %s\npop:    %s", wantRuns, gotRuns)
	}
	if string(gotSum) != string(wantSum) {
		t.Errorf("size-1 population summary differs from RunMatrix:\ndirect: %s\npop:    %s", wantSum, gotSum)
	}
	if popRes.Runs != len(sel)*2 {
		t.Errorf("population folded %d runs, want %d", popRes.Runs, len(sel)*2)
	}
	if got := popRes.OracleEnergy.Quantile(0.5); got != direct.OracleEnergyJ {
		t.Errorf("oracle energy digest %v, want %v", got, direct.OracleEnergyJ)
	}
}

// popFingerprint marshals the streamed records, the OnRun positions in
// index order, and the digest percentile tables — everything a population
// sweep externalises.
func popFingerprint(t *testing.T, workers int, units int, m population.Model, bt thermal.Config, pool *experiment.Pool) string {
	t.Helper()
	var recs []experiment.PopRun
	var mu sync.Mutex
	var updates []experiment.RunUpdate
	res, err := experiment.RunPopulation(workload.Quickstart(), soc.Dragonboard(),
		experiment.PopulationOptions{
			Options: experiment.Options{
				Reps: 1, Seed: 5, Workers: workers, Pool: pool,
				Configs: []string{"2.15 GHz", "ondemand"},
				OnRun: func(u experiment.RunUpdate) {
					u.Run = nil // the pop records carry its outcome
					mu.Lock()
					updates = append(updates, u)
					mu.Unlock()
				},
			},
			Units:       units,
			Model:       m,
			BaseThermal: bt,
			OnPop:       func(pr experiment.PopRun) { recs = append(recs, pr) },
		})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(updates, func(i, j int) bool { return updates[i].Index < updates[j].Index })
	type row struct {
		Config        string
		P50, P95, P99 float64
	}
	var rows []row
	for _, cfg := range res.Configs {
		r := row{cfg, res.Quantile(cfg, "qoe", 0.5), res.Quantile(cfg, "energy", 0.95), -1}
		if bt.Enabled() {
			r.P99 = res.Quantile(cfg, "peak_temp", 0.99)
		}
		rows = append(rows, r)
	}
	raw, err := json.Marshal(struct {
		Recs    []experiment.PopRun
		Updates []experiment.RunUpdate
		Rows    []row
	}{recs, updates, rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestPopulationDeterministicAcrossWorkers: streamed records, run positions
// and digest tables are invariant to pool width and to whether the sweep
// runs on a transient pool or the caller's, with the full model and thermal
// on.
func TestPopulationDeterministicAcrossWorkers(t *testing.T) {
	m := population.DefaultModel()
	bt := thermal.PhoneConfig(1, 0, 0) // record-only zones
	narrow := popFingerprint(t, 1, 3, m, bt, nil)
	wide := popFingerprint(t, 8, 3, m, bt, nil)
	if narrow != wide {
		t.Errorf("population sweep depends on pool width:\n1 worker:  %s\n8 workers: %s", narrow, wide)
	}
	if pooled := popFingerprint(t, 0, 3, m, bt, experiment.NewPool(3)); pooled != narrow {
		t.Errorf("population sweep depends on the caller's pool:\ntransient: %s\ncaller's:  %s", narrow, pooled)
	}
}

// TestPopulationPreparePanicNamesUnit: a panic while preparing unit 1, which
// runs on a worker alongside unit 0's replays, is contained. It fails the
// sweep with a *PanicError naming unit 1 only after unit 0 has streamed all
// its records, and the same pool then reproduces an undisturbed population.
func TestPopulationPreparePanicNamesUnit(t *testing.T) {
	m := population.DefaultModel()
	pool := experiment.NewPool(2)
	plan := faultinject.NewPlan()
	plan.Arm("workload.record", 2) // unit 1's recording
	w := workload.Quickstart()
	script := w.Script
	w.Script = func() []workload.Step {
		if plan.Fire("workload.record") {
			faultinject.PanicNow(plan, "workload.record")
		}
		return script()
	}
	var recs []experiment.PopRun
	_, err := experiment.RunPopulation(w, soc.Dragonboard(), experiment.PopulationOptions{
		Options: experiment.Options{Reps: 1, Seed: 5, Pool: pool, Configs: []string{"2.15 GHz", "ondemand"}},
		Units:   3,
		Model:   m,
		OnPop:   func(pr experiment.PopRun) { recs = append(recs, pr) },
	})
	var pe *experiment.PanicError
	if !errors.As(err, &pe) || !faultinject.IsInjected(pe.Value) {
		t.Fatalf("sweep returned %v, want the injected panic as a *PanicError", err)
	}
	if !strings.Contains(err.Error(), "unit 1 ") {
		t.Errorf("error %q does not name unit 1", err)
	}
	if len(recs) != 2 || recs[0].Unit != 0 || recs[1].Unit != 0 {
		t.Errorf("streamed %+v before the failure, want unit 0's two records", recs)
	}
	if pool.RecoveredPanics() != 1 {
		t.Errorf("pool recovered %d panics, want 1", pool.RecoveredPanics())
	}

	want := popFingerprint(t, 2, 3, m, thermal.Config{}, nil)
	if got := popFingerprint(t, 0, 3, m, thermal.Config{}, pool); got != want {
		t.Errorf("pool diverged after a contained prepare panic:\nwant %s\ngot  %s", want, got)
	}
}

// TestPopulationSessionsFlatOnPool: an enabled model releases each unit's
// warm sessions, so pool memory does not grow with the population.
func TestPopulationSessionsFlatOnPool(t *testing.T) {
	pool := experiment.NewPool(2)
	popFingerprint(t, 0, 4, population.DefaultModel(), thermal.Config{}, pool)
	if warm := pool.WarmSessions(); warm > 2 {
		t.Errorf("pool holds %d warm sessions after a 4-unit population; unit sessions were not released", warm)
	}
}

// TestPopulationPerturbationsReachRuns: the population axes actually land
// in the replays — silicon scatter moves per-unit energy, thermal zones
// record peak temperatures, battery caps show up on aged units.
func TestPopulationPerturbationsReachRuns(t *testing.T) {
	m := population.Model{CnSigma: 0.2, BatteryAgedFrac: 1, BatteryMaxSteps: 3}
	bt := thermal.PhoneConfig(1, 0, 0)
	var recs []experiment.PopRun
	res, err := experiment.RunPopulation(workload.Quickstart(), soc.Dragonboard(),
		experiment.PopulationOptions{
			Options:     experiment.Options{Reps: 1, Seed: 9, Configs: []string{"2.15 GHz", "ondemand"}},
			Units:       3,
			Model:       m,
			BaseThermal: bt,
			OnPop:       func(pr experiment.PopRun) { recs = append(recs, pr) },
		})
	if err != nil {
		t.Fatal(err)
	}
	energies := map[float64]bool{}
	for _, pr := range recs {
		if pr.Config != "2.15 GHz" {
			continue
		}
		energies[pr.TotalEnergyJ] = true
		if pr.PeakTempC <= 0 {
			t.Errorf("unit %d has no peak temperature despite thermal zones", pr.Unit)
		}
	}
	if len(energies) < 2 {
		t.Errorf("silicon lottery inert: %d distinct energies across 3 units", len(energies))
	}
	d := res.Digests["2.15 GHz"]
	if d.QoE.Count() != 3 || d.Energy.Count() != 3 || d.PeakTemp.Count() != 3 {
		t.Errorf("digest counts = %d/%d/%d, want 3 each", d.QoE.Count(), d.Energy.Count(), d.PeakTemp.Count())
	}
	// Everyone is aged with full probability: the top OPP must be capped,
	// so the "2.15 GHz" pin cannot actually reach 2.15 GHz — its energy
	// should match a lower ladder point, and critically differ from an
	// uncapped unit's. Cheap proxy: compare against a zero-model unit.
	uncapped, err := experiment.RunMatrix(workload.Quickstart(), soc.Dragonboard(),
		experiment.Options{Reps: 1, Seed: population.UnitSeed(9, 0), Configs: []string{"2.15 GHz", "ondemand"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range recs {
		if pr.Unit == 0 && pr.Config == "2.15 GHz" && pr.TotalEnergyJ == uncapped.MeanTotalEnergyJ("2.15 GHz") {
			t.Error("aged unit 0 matches the uncapped device exactly; battery cap never applied")
		}
	}
}

// TestPopulationValidation pins the error paths.
func TestPopulationValidation(t *testing.T) {
	w := workload.Quickstart()
	if _, err := experiment.RunPopulation(w, soc.Dragonboard(),
		experiment.PopulationOptions{Options: experiment.Options{Reps: 1}}); err == nil ||
		!strings.Contains(err.Error(), "unit") {
		t.Errorf("Units=0 accepted: %v", err)
	}
	if _, err := experiment.RunPopulation(w, soc.Dragonboard(), experiment.PopulationOptions{
		Options: experiment.Options{Reps: 1}, Units: 1,
		Model: population.Model{CnSigma: -1},
	}); err == nil || !strings.Contains(err.Error(), "cn_sigma") {
		t.Errorf("bad model accepted: %v", err)
	}
	if _, err := experiment.RunPopulation(w, soc.Dragonboard(), experiment.PopulationOptions{
		Options: experiment.Options{Reps: 1, Configs: []string{"nope"}}, Units: 1,
	}); err == nil {
		t.Error("bad config selection accepted")
	}
}
