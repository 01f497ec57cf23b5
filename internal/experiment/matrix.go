package experiment

import (
	"fmt"
	"strings"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/evdev"
	"repro/internal/governor"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/workload"
)

// MixedArms lists the heterogeneous per-cluster governor assignments swept on
// two-cluster specs, as {little governor, big governor} name pairs. The set
// covers the axes the big.LITTLE studies care about: which cluster reacts to
// input (interactive placement), asymmetric load policies, and the mixed
// pinned/governed arms where one domain is frozen while the other floats.
var MixedArms = [][2]string{
	{"interactive", "ondemand"},
	{"ondemand", "interactive"},
	{"conservative", "interactive"},
	{"powersave", "interactive"},
	{"interactive", "performance"},
}

// GovernorByName builds a fresh governor instance for one cluster. tbl is the
// cluster's own ladder (used by the pinned powersave/performance arms). An
// unknown name is a returned error, never a panic: governor names are user
// input by the time sweeps run behind flags and HTTP job specs, and a typo
// must fail the one request — a 400 from POST /jobs — not a replay worker.
func GovernorByName(name string, tbl power.Table) (governor.Governor, error) {
	switch name {
	case "conservative":
		return governor.NewConservative(), nil
	case "interactive":
		return governor.NewInteractive(), nil
	case "ondemand":
		return governor.NewOndemand(), nil
	case "powersave":
		return governor.Powersave(tbl), nil
	case "performance":
		return governor.Performance(tbl), nil
	}
	return nil, fmt.Errorf("experiment: unknown governor %q", name)
}

// MatrixConfigs returns the full characterisation matrix for a SoC spec. On
// a single-cluster spec it is exactly the paper's 17 configurations
// (AllConfigs on the one ladder). On a multi-cluster spec it extends the
// paper's matrix to the heterogeneous axes: the fixed-frequency ladder of
// the big (last) cluster — each point pinning every cluster at the lowest
// OPP of its own ladder at or above the label (cpufreq RELATION_L) — the
// three load-based governors applied homogeneously per cluster, and, on
// two-cluster specs, the MixedArms per-cluster assignments named
// "<little governor>/<big governor>".
func MatrixConfigs(spec soc.Spec) []Config {
	bigTbl := spec.Clusters[len(spec.Clusters)-1].Table
	if len(spec.Clusters) == 1 {
		return AllConfigs(bigTbl)
	}
	out := AllConfigs(bigTbl)
	if len(spec.Clusters) != 2 {
		return out
	}
	for _, arm := range MixedArms {
		out = append(out, Config{
			Name:     arm[0] + "/" + arm[1],
			OPPIndex: -1,
			ArmNames: []string{arm[0], arm[1]},
		})
	}
	return out
}

// ValidateSelection checks a config-matrix selection against a spec without
// running anything: every name must exist in MatrixConfigs(spec) or be a
// resolvable "<little>/<big>" mixed arm on a two-cluster spec, and on
// single-cluster specs the selection must keep at least one fixed frequency.
// An empty selection (= full matrix) is always valid. The error is exactly
// what a submission endpoint should echo back as a 400.
func ValidateSelection(spec soc.Spec, names []string) error {
	if len(names) == 0 {
		return nil
	}
	_, err := selectConfigs(spec, MatrixConfigs(spec), names)
	return err
}

// selectConfigs restricts a matrix to the named subset, preserving matrix
// order (so the same selection always yields the same sweep regardless of
// the order names were given in). Names outside the standard matrix are
// accepted on two-cluster specs when they parse as "<little>/<big>" mixed
// arms with known governor names — the sweep-as-a-service form of "run me a
// custom arm" — and are appended after the matrix subset in the order given.
// Anything else is an error, as is a governor name GovernorByName rejects;
// on single-cluster specs the selection must retain at least one fixed
// frequency, which the oracle needs as candidate set and threshold
// reference.
func selectConfigs(spec soc.Spec, all []Config, names []string) ([]Config, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []Config
	fixed := false
	for _, cfg := range all {
		if !want[cfg.Name] {
			continue
		}
		delete(want, cfg.Name)
		out = append(out, cfg)
		if cfg.OPPIndex >= 0 {
			fixed = true
		}
	}
	for _, n := range names {
		if !want[n] {
			continue
		}
		delete(want, n)
		cfg, err := mixedArmConfig(spec, n)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	if len(spec.Clusters) == 1 && !fixed {
		return nil, fmt.Errorf("config selection needs at least one fixed frequency on a single-cluster spec (oracle candidates)")
	}
	return out, nil
}

// mixedArmConfig parses a config name outside the standard matrix as a
// per-cluster governor assignment ("<little governor>/<big governor>") on a
// two-cluster spec, resolving every governor name so a typo fails here — at
// validation — rather than inside a replay worker.
func mixedArmConfig(spec soc.Spec, name string) (Config, error) {
	if !IsMixedArm(name) || len(spec.Clusters) != 2 {
		return Config{}, fmt.Errorf("unknown config %q in selection", name)
	}
	parts := strings.Split(name, "/")
	if len(parts) != len(spec.Clusters) {
		return Config{}, fmt.Errorf("mixed arm %q names %d governors for a %d-cluster spec",
			name, len(parts), len(spec.Clusters))
	}
	for i, gov := range parts {
		if _, err := GovernorByName(gov, spec.Clusters[i].Table); err != nil {
			return Config{}, fmt.Errorf("config %q: %w", name, err)
		}
	}
	return Config{Name: name, OPPIndex: -1, ArmNames: parts}, nil
}

// MatrixResult holds the spec-aware characterisation sweep of one workload:
// the config-matrix runs, the placement-pinned candidate runs behind the
// cluster-aware oracle, the shared thresholds, and one oracle per
// repetition. On soc.Dragonboard it is the paper's per-dataset study. It is
// immutable once RunMatrix returns.
type MatrixResult struct {
	// Workload and Spec identify the sweep; Model is the calibrated
	// per-cluster power model (watts per OPP per cluster).
	Workload *workload.Workload
	Spec     soc.Spec
	Model    *power.SoCModel
	// Recording, RecordTruths, Gestures and DB are the shared
	// record/annotate artefacts: the input trace, the recording pass's
	// ground truth (Table I, Fig. 10), its gestures and the annotation.
	Recording    *workload.Recording
	RecordTruths []device.GroundTruth
	Gestures     []evdev.Gesture
	DB           *annotate.DB
	// Configs is the swept matrix (MatrixConfigs order).
	Configs []Config
	// Runs maps config name to its repetitions, in rep order.
	Runs map[string][]*Run
	// Candidates holds the oracle's search space per repetition: one
	// placement-pinned run per (cluster, OPP), ordered (cluster, OPP)
	// ascending.
	Candidates [][]oracle.ClusterFixedRun
	// Thresholds is the paper's rule generalised to the heterogeneous
	// search space: 110% of the worst-across-reps lag durations of the
	// fastest candidate (the big cluster's top clock).
	Thresholds core.Thresholds
	// Oracles holds one cluster-aware oracle per repetition;
	// OracleEnergyJ is their mean dynamic energy in joules.
	Oracles       []*oracle.ClusterOracle
	OracleEnergyJ float64
}

// RunMatrix executes the full characterisation sweep for one workload on an
// explicit SoC spec: record once, annotate once, replay every MatrixConfigs
// configuration Reps times, replay the (cluster, OPP) oracle candidates, and
// build one energy-aware cluster oracle per repetition — all across the
// bounded worker pool, with deterministic results regardless of worker
// interleaving. On the single-cluster Dragonboard spec the candidate runs
// coincide with the fixed-frequency matrix runs and are reused, so the sweep
// is exactly the paper's 17x5 study plus the oracle.
func RunMatrix(w *workload.Workload, spec soc.Spec, opts Options) (*MatrixResult, error) {
	opts = opts.withDefaults()
	res, s, err := prepareMatrix(w, spec, opts)
	if err != nil {
		return nil, err
	}
	if err := res.replay(s, opts, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// prepareMatrix is RunMatrix's front half: validate the spec, calibrate its
// power model, select the configs and run Part A. The result it returns
// holds everything but the runs, candidates and oracles. opts must carry its
// defaults already.
func prepareMatrix(w *workload.Workload, spec soc.Spec, opts Options) (*MatrixResult, *sweep, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, fmt.Errorf("experiment: %w", err)
	}
	wc := *w
	wc.Profile.SoC = spec
	w = &wc

	socModel, err := spec.Calibrate(0)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: calibrate %s: %w", spec.Name, err)
	}
	res := &MatrixResult{
		Workload: w,
		Spec:     spec,
		Model:    socModel,
		Configs:  MatrixConfigs(spec),
		Runs:     make(map[string][]*Run),
	}
	if len(opts.Configs) > 0 {
		sel, err := selectConfigs(spec, res.Configs, opts.Configs)
		if err != nil {
			return nil, nil, fmt.Errorf("experiment: %w", err)
		}
		res.Configs = sel
	}

	s, err := prepare(w, socModel, w.Profile, 1, opts)
	if err != nil {
		return nil, nil, err
	}
	res.Recording, res.RecordTruths, res.Gestures, res.DB = s.rec, s.truths, s.gestures, s.db
	return res, s, nil
}

// replay is RunMatrix's back half: lay out the config and candidate jobs,
// fan them out over the pool (side, when set, rides along as the batch's
// first-claimed job), assemble the per-rep candidate sets and build the
// oracles into res.
func (res *MatrixResult) replay(s *sweep, opts Options, side *sideJob) error {
	w, spec := res.Workload, res.Spec

	// The job matrix: config runs plus, on multi-cluster specs, the
	// placement-pinned candidate runs the oracle searches. On a
	// single-cluster spec every candidate coincides with a fixed config run
	// and is reused instead of re-replayed.
	multi := len(spec.Clusters) > 1
	jobs := configJobs(res.Configs, 1, opts.Reps)
	nCand := 0
	if multi {
		for ci, cs := range spec.Clusters {
			for oi := range cs.Table {
				for rep := 0; rep < opts.Reps; rep++ {
					jobs = append(jobs, job{candidate: true, cluster: ci, opp: oi, rep: rep})
				}
				nCand++
			}
		}
	}
	opts.progress("[%s] replaying %d configs x %d reps + %d oracle candidates x %d reps = %d runs",
		w.Name, len(res.Configs), opts.Reps, nCand, opts.Reps, len(jobs))

	runs := make([]*Run, len(jobs))
	cands := make([]oracle.ClusterFixedRun, len(jobs))
	candName := func(j job) string {
		cs := spec.Clusters[j.cluster]
		return cs.Name + "@" + cs.Table[j.opp].Label()
	}
	err := opts.fanOut(w.Name, len(jobs), side, func(ji int) string {
		j := jobs[ji]
		if j.candidate {
			return fmt.Sprintf("candidate %s rep %d", candName(j), j.rep)
		}
		return fmt.Sprintf("%s rep %d", j.cfg.Name, j.rep)
	}, func(ji int, seed uint64, scratch *replayScratch) (RunUpdate, error) {
		j := jobs[ji]
		var err error
		if !j.candidate {
			runs[ji], err = s.executeRun(w, j.cfg, j.rep, seed, scratch)
			return RunUpdate{Kind: "config", Config: j.cfg.Name, Rep: j.rep, Run: runs[ji]}, err
		}
		cands[ji], err = s.executeCandidateRun(w, spec, j.cluster, j.opp, seed, scratch)
		return RunUpdate{Kind: "candidate", Config: candName(j), Rep: j.rep}, err
	})
	if err != nil {
		return err
	}
	for _, r := range runs {
		if r != nil {
			res.Runs[r.Config] = append(res.Runs[r.Config], r)
		}
	}

	// Assemble the per-rep candidate sets, (cluster, OPP) ascending — the
	// order the candidate jobs were laid out in. On a single-cluster spec
	// the fixed matrix runs are the candidates; under a config selection
	// only the selected fixed frequencies exist, and selectConfigs
	// guarantees there is at least one.
	res.Candidates = make([][]oracle.ClusterFixedRun, opts.Reps)
	for ji, j := range jobs {
		if j.candidate {
			res.Candidates[j.rep] = append(res.Candidates[j.rep], cands[ji])
		} else if !multi && j.cfg.OPPIndex >= 0 {
			r := runs[ji]
			res.Candidates[j.rep] = append(res.Candidates[j.rep], oracle.ClusterFixedRun{
				OPPIndex: j.cfg.OPPIndex, Profile: r.Profile, Busy: r.Busy,
			})
		}
	}

	if err := res.buildClusterOracles(opts.Factor); err != nil {
		return err
	}
	opts.progress("[%s] done: cluster oracle %.2f J", w.Name, res.OracleEnergyJ)
	return nil
}

// executeCandidateRun replays the workload with every task placed on one
// cluster pinned at one OPP — a single point of the cluster oracle's search
// space. Placement pinning is a single-cluster boot of that cluster's spec:
// with one frequency domain the scheduler degenerates and all work, input
// handling and background services run there, which is exactly the
// counterfactual the oracle needs ("what if this lag were served on the
// little cluster at 0.80 GHz?").
func (s *sweep) executeCandidateRun(w *workload.Workload, spec soc.Spec, cluster, opp int, seed uint64,
	scratch *replayScratch) (oracle.ClusterFixedRun, error) {
	cs := spec.Clusters[cluster]
	wc := *w
	wc.Profile.SoC = soc.Spec{Name: spec.Name + "-" + cs.Name + "-only", Clusters: []soc.ClusterSpec{cs}}
	// The single-cluster boot must carry the single-cluster slice of the
	// profile's per-cluster environment: its own thermal zone (Validate
	// requires one zone per cluster), its own battery cap, and no shared
	// power model (calibrated for the full spec's cluster count).
	if wc.Profile.Thermal.Enabled() {
		wc.Profile.Thermal.Zones = wc.Profile.Thermal.Zones[cluster : cluster+1]
	}
	if cluster < len(wc.Profile.FreqCaps) {
		wc.Profile.FreqCaps = wc.Profile.FreqCaps[cluster : cluster+1]
	} else {
		wc.Profile.FreqCaps = nil
	}
	wc.Profile.ThermalPower = nil
	wc.Profile.FramePool = scratch.frames
	name := cs.Name + "@" + cs.Table[opp].Label()
	sess := scratch.session(&wc)
	// Candidate runs retain only the profile and a busy summary, so the
	// aggregate curve and the whole per-cluster traces recycle from one
	// candidate replay into the worker's next one.
	scratch.lend(sess.Dev, true)
	govs := []governor.Governor{governor.NewFixed(cs.Table, opp)}
	art := sess.ReplayRecording(s.rec, govs, name, seed, true)
	profile, err := match.Match(art.Video, s.db, s.gestures, name, match.Options{Strict: true})
	if err != nil {
		return oracle.ClusterFixedRun{}, err
	}
	scratch.release(art.Video)
	art.Video = nil
	busy := oracle.SummarizeBusy(art.BusyCurve, profile)
	scratch.reclaim(art, true)
	return oracle.ClusterFixedRun{
		Cluster:  cluster,
		OPPIndex: opp,
		Profile:  profile,
		Busy:     busy,
	}, nil
}

// buildClusterOracles derives the sweep thresholds (110% of the worst
// fastest-candidate lag durations across repetitions, so the oracle is never
// irritating despite per-repetition jitter) and one cluster-aware oracle per
// repetition.
func (res *MatrixResult) buildClusterOracles(factor float64) error {
	if len(res.Candidates) == 0 || len(res.Candidates[0]) == 0 {
		return fmt.Errorf("experiment: no oracle candidates")
	}
	// The fastest candidate: highest clock, ties toward the bigger cluster.
	fastestOf := func(cands []oracle.ClusterFixedRun) oracle.ClusterFixedRun {
		best := cands[0]
		bestKHz := res.Model.Cluster(best.Cluster).Table[best.OPPIndex].KHz
		for _, c := range cands[1:] {
			khz := res.Model.Cluster(c.Cluster).Table[c.OPPIndex].KHz
			if khz > bestKHz || (khz == bestKHz && c.Cluster > best.Cluster) {
				best, bestKHz = c, khz
			}
		}
		return best
	}

	// Worst-across-reps composite of the fastest candidate's lags.
	fasts := make([]oracle.ClusterFixedRun, len(res.Candidates))
	for rep, cands := range res.Candidates {
		fasts[rep] = fastestOf(cands)
	}
	first := fasts[0]
	ref := &core.Profile{Workload: res.Workload.Name, Config: "fastest"}
	nLags := len(first.Profile.Lags)
	for i := 0; i < nLags; i++ {
		lag := first.Profile.Lags[i]
		if lag.Spurious {
			ref.Lags = append(ref.Lags, lag)
			continue
		}
		worst := lag.Duration()
		for _, f := range fasts[1:] {
			if i < len(f.Profile.Lags) {
				if d := f.Profile.Lags[i].Duration(); d > worst {
					worst = d
				}
			}
		}
		ref.Lags = append(ref.Lags, core.Lag{
			Index: lag.Index, Label: lag.Label, Begin: lag.Begin, End: lag.Begin.Add(worst),
		})
	}
	res.Thresholds = core.RelativeThresholds(ref, factor)

	var energySum float64
	for rep, cands := range res.Candidates {
		o, err := oracle.BuildCluster(cands, res.Model, 0, &res.Thresholds)
		if err != nil {
			return fmt.Errorf("experiment: cluster oracle rep %d: %w", rep, err)
		}
		res.Oracles = append(res.Oracles, o)
		energySum += o.EnergyJ
	}
	res.OracleEnergyJ = energySum / float64(len(res.Candidates))
	return nil
}

// meanOf averages f over a configuration's runs (0 when it has none).
func (res *MatrixResult) meanOf(config string, f func(*Run) float64) float64 {
	rs := res.Runs[config]
	if len(rs) == 0 {
		return 0
	}
	var s float64
	for _, r := range rs {
		s += f(r)
	}
	return s / float64(len(rs))
}

// MeanEnergyJ returns the mean dynamic energy of a configuration in joules.
func (res *MatrixResult) MeanEnergyJ(config string) float64 {
	return res.meanOf(config, func(r *Run) float64 { return r.EnergyJ })
}

// MeanLeakEnergyJ returns the mean idle leakage energy of a configuration in
// joules (0 on specs without C-state ladders).
func (res *MatrixResult) MeanLeakEnergyJ(config string) float64 {
	return res.meanOf(config, func(r *Run) float64 { return r.LeakEnergyJ })
}

// MeanTotalEnergyJ returns the mean dynamic-plus-leakage energy of a
// configuration in joules. Without idle ladders it equals MeanEnergyJ.
func (res *MatrixResult) MeanTotalEnergyJ(config string) float64 {
	return res.MeanEnergyJ(config) + res.MeanLeakEnergyJ(config)
}

// NormEnergy returns a configuration's mean total energy normalised to the
// cluster oracle's. The oracle's EnergyJ prices idle time the same way the
// runs do (leakage is zero without ladders), so the ratio compares like with
// like on both kinds of spec.
func (res *MatrixResult) NormEnergy(config string) float64 {
	if res.OracleEnergyJ == 0 {
		return 0
	}
	return res.MeanTotalEnergyJ(config) / res.OracleEnergyJ
}

// MeanIrritation returns a configuration's mean user irritation under the
// sweep thresholds.
func (res *MatrixResult) MeanIrritation(config string) sim.Duration {
	rs := res.Runs[config]
	if len(rs) == 0 {
		return 0
	}
	var s sim.Duration
	for _, r := range rs {
		s += core.Irritation(r.Profile, res.Thresholds)
	}
	return s / sim.Duration(len(rs))
}

// PooledDurationsMS returns all lag durations (ms) of a configuration pooled
// across repetitions — the Fig. 11 samples.
func (res *MatrixResult) PooledDurationsMS(config string) []float64 {
	var out []float64
	for _, r := range res.Runs[config] {
		for _, d := range r.Profile.Durations() {
			out = append(out, d.Milliseconds())
		}
	}
	return out
}

// InputClassification counts the Fig. 10 classes of the sweep's recording.
func (res *MatrixResult) InputClassification() (taps, swipes, actual, spurious int) {
	return ClassifyInputs(res.Gestures, res.RecordTruths)
}

// MeanMigrations returns a configuration's mean scheduler migration count.
func (res *MatrixResult) MeanMigrations(config string) float64 {
	return res.meanOf(config, func(r *Run) float64 { return float64(r.Migrations) })
}

// ClusterBusyShare returns the mean fraction of core-busy time each cluster
// contributed under a configuration, in cluster order (sums to 1 when any
// work ran).
func (res *MatrixResult) ClusterBusyShare(config string) []float64 {
	rs := res.Runs[config]
	shares := make([]float64, len(res.Spec.Clusters))
	if len(rs) == 0 {
		return shares
	}
	for _, r := range rs {
		var total float64
		perCluster := make([]float64, len(shares))
		for ci, busy := range r.clusterBusy() {
			b := busy.Seconds()
			perCluster[ci] = b
			total += b
		}
		if total == 0 {
			continue
		}
		for ci := range shares {
			shares[ci] += perCluster[ci] / total
		}
	}
	for ci := range shares {
		shares[ci] /= float64(len(rs))
	}
	return shares
}

// clusterBusy returns the run's per-cluster busy totals: the ones a sweep
// kept, or, for a run built with whole curves, their last samples.
func (r *Run) clusterBusy() []sim.Duration {
	if r.ClusterBusy != nil {
		return r.ClusterBusy
	}
	out := make([]sim.Duration, len(r.Clusters))
	for ci, ct := range r.Clusters {
		out[ci] = ct.Busy.Total()
	}
	return out
}

// OracleClusterShares returns the mean fraction of lags the per-rep oracles
// served on each cluster, in cluster order.
func (res *MatrixResult) OracleClusterShares() []float64 {
	shares := make([]float64, len(res.Spec.Clusters))
	if len(res.Oracles) == 0 {
		return shares
	}
	for _, o := range res.Oracles {
		for ci, s := range o.ClusterShares(len(shares)) {
			shares[ci] += s
		}
	}
	for ci := range shares {
		shares[ci] /= float64(len(res.Oracles))
	}
	return shares
}

// ConfigNames returns the matrix configuration names in figure order.
func (res *MatrixResult) ConfigNames() []string {
	var names []string
	for _, c := range res.Configs {
		names = append(names, c.Name)
	}
	return names
}

// IsMixedArm reports whether a config name denotes a per-cluster governor
// assignment ("<little>/<big>").
func IsMixedArm(name string) bool { return strings.Contains(name, "/") }
