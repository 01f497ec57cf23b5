package experiment

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/soc"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// PopulationOptions configures a Monte Carlo population sweep: the base
// sweep Options (seed, reps, pool, config selection, streaming hooks) plus
// the population axes.
type PopulationOptions struct {
	Options
	// Units is the population size (number of simulated devices). Must be
	// >= 1.
	Units int
	// Model is the population perturbation model. The zero model runs every
	// unit as the base device — with Units == 1 that sweep is bit-identical
	// to RunMatrix at the same Options.
	Model population.Model
	// BaseThermal, when enabled, is the thermal configuration every unit
	// starts from before the model's ambient/case spread is applied. The
	// zero value runs thermal-free (peak-temperature digests stay empty).
	BaseThermal thermal.Config
	// OnPop, when set, receives one PopRun per completed matrix run, in
	// deterministic (unit, config, rep) order within each unit. It is
	// called from the sweep's own goroutine only — unlike Options.OnRun it
	// needs no synchronisation. This is the streaming record sink: the
	// sweep itself retains nothing per-run.
	OnPop func(PopRun)
}

// PopRun is one streamed population record: the scalar outcomes of one
// (unit, config, rep) replay. Everything a percentile sink needs, nothing
// that scales with trace length.
type PopRun struct {
	// Index is the run's position in the population's deterministic global
	// order: unit-major, then the unit's matrix job order. It is unique and
	// stable across worker counts — the resume key for durable sinks.
	Index int
	// Unit is the population unit index; Config/Rep name the matrix cell.
	Unit   int
	Config string
	Rep    int
	// IrritationS is the run's user irritation in seconds under the unit's
	// sweep thresholds; energies are joules.
	IrritationS  float64
	EnergyJ      float64
	LeakEnergyJ  float64
	TotalEnergyJ float64
	// PeakTempC is the hottest zone sample of the run (0 on thermal-free
	// sweeps).
	PeakTempC float64
	// Migrations counts scheduler migrations (0 on single-cluster specs).
	Migrations int
}

// ConfigDigests aggregates one configuration's population distribution:
// mergeable sketches of QoE (irritation seconds), total energy (joules) and
// peak temperature (°C) across all (unit, rep) runs.
type ConfigDigests struct {
	QoE      *stats.Digest
	Energy   *stats.Digest
	PeakTemp *stats.Digest
}

func newConfigDigests(compression float64) *ConfigDigests {
	return &ConfigDigests{
		QoE:      stats.NewDigest(compression),
		Energy:   stats.NewDigest(compression),
		PeakTemp: stats.NewDigest(compression),
	}
}

// PopulationResult is the flat-memory outcome of a population sweep:
// per-config quantile digests instead of per-run results. Its size is
// O(configs × compression), independent of Units.
type PopulationResult struct {
	// Workload and Spec name the sweep (the base spec; units derive their
	// own names from it).
	Workload string
	Spec     string
	// Units, Reps and Runs count the population, the repetitions per
	// config, and the total config runs folded into the digests
	// (Units × len(Configs) × Reps on success).
	Units int
	Reps  int
	Runs  int
	// Configs is the swept matrix subset, in matrix order.
	Configs []string
	// Digests maps config name to its population sketches.
	Digests map[string]*ConfigDigests
	// OracleEnergy sketches the per-unit cluster-oracle energy (joules) —
	// the fleet's best-case energy distribution.
	OracleEnergy *stats.Digest
}

// Quantile returns the q-quantile of a config's metric digest ("qoe",
// "energy" or "peak_temp"); NaN for unknown configs/metrics or empty
// digests.
func (r *PopulationResult) Quantile(config, metric string, q float64) float64 {
	cd := r.Digests[config]
	if cd == nil {
		return math.NaN()
	}
	switch metric {
	case "qoe":
		return cd.QoE.Quantile(q)
	case "energy":
		return cd.Energy.Quantile(q)
	case "peak_temp":
		return cd.PeakTemp.Quantile(q)
	}
	return math.NaN()
}

// RunPopulation executes a Monte Carlo population sweep: Units simulated
// devices, each generated by population.Generate from (Seed, unit index),
// each swept through the full RunMatrix (configs × reps + oracle
// candidates), with every run's scalar outcomes streamed through OnPop and
// folded into mergeable quantile digests. Memory stays flat in Units: each
// unit's MatrixResult is dropped as soon as its digests are folded in, and
// the unit's warm sessions are released from the pool.
//
// Every unit runs on one pool: the caller's, or a transient one of Workers
// width. Unit i+1's Part A (generate, calibrate, record, annotate) runs as
// the first-claimed job of unit i's replay batch, so it fills the worker the
// replays leave idle; at most Workers jobs are ever live. Its outcome,
// progress messages and any failure, a contained panic included, are held
// until the loop reaches unit i+1.
//
// Determinism: units are folded in index order on the caller's goroutine,
// each unit's matrix is internally parallel across the pool with the usual
// deterministic job ordering, and unit i's replays are seeded from
// population.UnitSeed(Seed, i) — so the streamed records and the digest
// tables are bit-identical regardless of worker count or pool. Unit 0 of any
// population runs at exactly Options.Seed, which pins the Units == 1
// zero-model sweep to RunMatrix bit for bit.
func RunPopulation(w *workload.Workload, spec soc.Spec, opts PopulationOptions) (*PopulationResult, error) {
	opts.Options = opts.Options.withDefaults()
	if opts.Units < 1 {
		return nil, fmt.Errorf("experiment: population needs at least 1 unit, got %d", opts.Units)
	}
	if err := opts.Model.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if opts.BaseThermal.Enabled() {
		if err := opts.BaseThermal.Validate(len(spec.Clusters)); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
	}

	// The config list is fixed by the base spec; units only perturb
	// constants, never ladder shapes, so every unit sweeps the same matrix.
	configs := MatrixConfigs(spec)
	if len(opts.Configs) > 0 {
		sel, err := selectConfigs(spec, configs, opts.Configs)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		configs = sel
	}

	// perUnit is each unit's total replay count (matrix runs + oracle
	// candidates), fixed across units — the stride of the global index.
	nCand := 0
	if len(spec.Clusters) > 1 {
		for _, cs := range spec.Clusters {
			nCand += len(cs.Table)
		}
	}
	perUnit := (len(configs) + nCand) * opts.Reps
	total := opts.Units * perUnit

	res := &PopulationResult{
		Workload:     w.Name,
		Spec:         spec.Name,
		Units:        opts.Units,
		Reps:         opts.Reps,
		Digests:      make(map[string]*ConfigDigests, len(configs)),
		OracleEnergy: stats.NewDigest(0),
	}
	for _, cfg := range configs {
		res.Configs = append(res.Configs, cfg.Name)
		res.Digests[cfg.Name] = newConfigDigests(0)
	}

	opts.progress("[%s] population sweep: %d units x (%d configs + %d candidates) x %d reps = %d runs",
		w.Name, opts.Units, len(configs), nCand, opts.Reps, total)

	if opts.Pool == nil {
		opts.Pool = NewPool(opts.Workers)
	}
	// unitOpts are unit i's sweep options: its seed, and OnRun re-anchored
	// from the unit's sweep position to the population's global order.
	unitOpts := func(i int) Options {
		uo := opts.Options
		uo.Seed = population.UnitSeed(opts.Seed, i)
		if inner := opts.OnRun; inner != nil {
			base := i * perUnit
			uo.OnRun = func(u RunUpdate) {
				u.Index += base
				u.Total = total
				inner(u)
			}
		}
		return uo
	}
	// prepareUnit runs unit i's Part A into u, on whichever goroutine calls
	// it; its progress messages are kept for the caller's goroutine.
	prepareUnit := func(u *popUnit, i int) {
		unit := population.Generate(opts.Model, spec, opts.BaseThermal, opts.Seed, i)
		u.name = unit.Spec.Name

		// The unit's workload copy carries its thermal environment and
		// battery caps; prepareMatrix installs the unit spec itself.
		wu := *w
		wu.Profile.Thermal = unit.Thermal
		wu.Profile.FreqCaps = unit.FreqCaps
		uo := unitOpts(i)
		if uo.Progress != nil {
			uo.Progress = func(msg string) { u.msgs = append(u.msgs, msg) }
		}
		u.res, u.s, u.err = prepareMatrix(&wu, unit.Spec, uo)
	}

	var next *popUnit
	for i := 0; i < opts.Units; i++ {
		if err := opts.Context.Err(); err != nil {
			return nil, fmt.Errorf("experiment: population unit %d: %w", i, err)
		}
		cur := next
		if cur == nil {
			cur = &popUnit{}
			prepareUnit(cur, i)
		}
		for _, msg := range cur.msgs {
			opts.Progress(msg)
		}
		if cur.err != nil {
			return nil, fmt.Errorf("experiment: population unit %d (%s): %w", i, cur.name, cur.err)
		}

		// Unit i+1's Part A rides along unit i's replay batch.
		next = nil
		var side *sideJob
		if i+1 < opts.Units {
			next = &popUnit{}
			nu, ni := next, i+1
			side = &sideJob{run: func() { prepareUnit(nu, ni) }}
		}
		mres := cur.res
		if err := mres.replay(cur.s, unitOpts(i), side); err != nil {
			return nil, fmt.Errorf("experiment: population unit %d (%s): %w", i, cur.name, err)
		}
		if side != nil && side.panicked != nil {
			next.err = side.panicked
		}

		// Fold the unit into the sinks on the orchestrator goroutine, in
		// deterministic (config, rep) order.
		base := i * perUnit
		ji := 0
		for _, cfg := range configs {
			for rep, r := range mres.Runs[cfg.Name] {
				pr := PopRun{
					Index:        base + ji,
					Unit:         i,
					Config:       cfg.Name,
					Rep:          rep,
					IrritationS:  core.Irritation(r.Profile, mres.Thresholds).Seconds(),
					EnergyJ:      r.EnergyJ,
					LeakEnergyJ:  r.LeakEnergyJ,
					TotalEnergyJ: r.TotalEnergyJ(),
					Migrations:   r.Migrations,
				}
				for _, ct := range r.Clusters {
					if p := ct.Temp.PeakC(); p > pr.PeakTempC {
						pr.PeakTempC = p
					}
				}
				cd := res.Digests[cfg.Name]
				cd.QoE.Add(pr.IrritationS)
				cd.Energy.Add(pr.TotalEnergyJ)
				if opts.BaseThermal.Enabled() {
					cd.PeakTemp.Add(pr.PeakTempC)
				}
				if opts.OnPop != nil {
					opts.OnPop(pr)
				}
				res.Runs++
				ji++
			}
		}
		res.OracleEnergy.Add(mres.OracleEnergyJ)

		// Retire the unit's warm sessions (matrix and candidate boots both
		// key on the unit's spec name) so pool memory is flat in Units. A
		// zero model reuses the base name for every unit — those sessions
		// stay warm, exactly like repeated RunMatrix calls.
		if opts.Model.Enabled() {
			marker := "|" + cur.name
			opts.Pool.ReleaseSessions(func(key string) bool {
				return strings.Contains(key, marker)
			})
		}
	}
	opts.progress("[%s] population done: %d runs, p95 oracle energy %.2f J",
		w.Name, res.Runs, res.OracleEnergy.Quantile(0.95))
	return res, nil
}

// popUnit is one population unit between its Part A and its replays: the
// unit spec's name, the front half of its matrix sweep, and the progress
// messages Part A produced, held for delivery on the caller's goroutine.
type popUnit struct {
	name string
	res  *MatrixResult
	s    *sweep
	msgs []string
	err  error
}
