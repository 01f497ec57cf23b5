package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/evdev"
	"repro/internal/experiment"
	"repro/internal/governor"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/population"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/soc"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/video"
	"repro/internal/workload"
)

// The traced sweep: RunMatrix and RunPopulation re-driven call by call
// through the layers' public functions, with one span per call. It returns
// the same result types the entry points return, so the output digests of a
// traced request and an untraced one compare directly — equal digests prove
// the traced run did the same work.

// lane is one worker's replay state, the traced counterpart of the
// experiment pool's per-worker scratch: a frame pool, a trace recycling
// slot and the warm replay sessions.
type lane struct {
	frames   *video.FramePool
	traces   []*trace.ClusterTraces
	sessions map[string]*workload.ReplaySession
}

func newLanes(n int) []*lane {
	out := make([]*lane, n)
	for i := range out {
		out[i] = &lane{frames: video.NewFramePool(), sessions: make(map[string]*workload.ReplaySession)}
	}
	return out
}

// release drops the sessions whose key contains marker from every lane, as
// RunPopulation does for a finished unit on a caller-owned pool.
func releaseSessions(lanes []*lane, marker string) {
	for _, l := range lanes {
		for k := range l.sessions {
			if strings.Contains(k, marker) {
				delete(l.sessions, k)
			}
		}
	}
}

// tracedSweep re-drives sweeps under one tracer. With persistent lanes
// (long-lived, like a qoed executor's pool) warm sessions carry over between
// sweeps; without, every sweep boots on fresh lanes, like the transient pool
// RunMatrix builds when the caller passes none.
type tracedSweep struct {
	t       *tracer
	workers int
	lanes   []*lane // nil: fresh lanes per sweep
}

// matrix is RunMatrix(w, spec, Options{Reps: reps, Seed: seed, Configs:
// configs}) on the sweep's lanes.
func (ts *tracedSweep) matrix(req int, parent int64, w *workload.Workload, spec soc.Spec,
	configs []string, reps int, seed uint64) (*experiment.MatrixResult, error) {
	t := ts.t
	msp := t.open(req, parent, spanMatrix)
	defer t.close(msp)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	wc := *w
	wc.Profile.SoC = spec
	w = &wc
	lanes := ts.lanes
	if lanes == nil {
		lanes = newLanes(ts.workers)
	}

	sp := t.open(req, msp.ID, spanCalibrate)
	model, err := spec.Calibrate(0)
	t.close(sp)
	if err != nil {
		return nil, err
	}
	res := &experiment.MatrixResult{Workload: w, Spec: spec, Model: model, Runs: make(map[string][]*experiment.Run)}
	if res.Configs, err = selectConfigs(spec, configs); err != nil {
		return nil, err
	}

	sp = t.open(req, msp.ID, spanRecord)
	sp.SimS = w.Duration.Seconds()
	rec, _, err := w.Record(seed)
	t.close(sp)
	if err != nil {
		return nil, err
	}
	res.Recording = rec
	res.Gestures = match.Gestures(rec.Events)

	sp = t.open(req, msp.ID, spanAnnotReplay)
	ann := workload.ReplayMulti(w, rec, workload.StockGovernors(w.Profile), "annotation", seed^0xA11, true)
	sp.SimS, sp.Frames, sp.Distinct = ann.Window.Seconds(), ann.Video.Len(), ann.Video.DistinctFrames()
	t.close(sp)
	sp = t.open(req, msp.ID, spanAnnotate)
	res.DB, err = annotate.Build(w.Name, ann.Video, res.Gestures, ann.Truths, annotate.BuildOptions{MinStill: 1})
	t.close(sp)
	if err != nil {
		return nil, err
	}

	type job struct {
		candidate    bool
		cfg          experiment.Config
		cluster, opp int
		rep          int
	}
	var jobs []job
	for _, cfg := range res.Configs {
		for rep := 0; rep < reps; rep++ {
			jobs = append(jobs, job{cfg: cfg, rep: rep})
		}
	}
	multi := len(spec.Clusters) > 1
	if multi {
		for ci, cs := range spec.Clusters {
			for oi := range cs.Table {
				for rep := 0; rep < reps; rep++ {
					jobs = append(jobs, job{candidate: true, cluster: ci, opp: oi, rep: rep})
				}
			}
		}
	}
	runs := make([]*experiment.Run, len(jobs))
	cands := make([]oracle.ClusterFixedRun, len(jobs))
	errs := make([]error, len(jobs))
	env := sweepEnv{t: t, req: req, w: w, rec: rec, db: res.DB, gestures: res.Gestures, model: model}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < min(len(lanes), len(jobs)); wi++ {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for {
				ji := int(cursor.Add(1)) - 1
				if ji >= len(jobs) {
					return
				}
				j := jobs[ji]
				jsp := t.open(req, msp.ID, spanJob)
				jseed := seed ^ (uint64(ji+1) * 0x9e3779b9)
				if j.candidate {
					cands[ji], errs[ji] = env.candidate(l, jsp.ID, spec, j.cluster, j.opp, jseed)
				} else {
					runs[ji], errs[ji] = env.config(l, jsp.ID, j.cfg, j.rep, jseed)
				}
				t.close(jsp)
			}
		}(lanes[wi])
	}
	wg.Wait()
	for ji, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", ji, err)
		}
	}
	for _, r := range runs {
		if r != nil {
			res.Runs[r.Config] = append(res.Runs[r.Config], r)
		}
	}

	res.Candidates = make([][]oracle.ClusterFixedRun, reps)
	if multi {
		for ji, j := range jobs {
			if j.candidate {
				res.Candidates[j.rep] = append(res.Candidates[j.rep], cands[ji])
			}
		}
		for _, cs := range res.Candidates {
			sort.Slice(cs, func(a, b int) bool {
				if cs[a].Cluster != cs[b].Cluster {
					return cs[a].Cluster < cs[b].Cluster
				}
				return cs[a].OPPIndex < cs[b].OPPIndex
			})
		}
	} else {
		for rep := 0; rep < reps; rep++ {
			for _, cfg := range res.Configs {
				if cfg.OPPIndex < 0 {
					continue
				}
				r := res.Runs[cfg.Name][rep]
				res.Candidates[rep] = append(res.Candidates[rep], oracle.ClusterFixedRun{
					Cluster: 0, OPPIndex: cfg.OPPIndex, Profile: r.Profile, BusyCurve: r.BusyCurve,
				})
			}
		}
	}
	res.Thresholds = sweepThresholds(res)
	var sum float64
	for _, cs := range res.Candidates {
		sp := t.open(req, msp.ID, spanOracle)
		sp.N = len(cs)
		o, err := oracle.BuildCluster(cs, model, 0, &res.Thresholds)
		sp.Failed = err != nil
		t.close(sp)
		if err != nil {
			return nil, err
		}
		res.Oracles = append(res.Oracles, o)
		sum += o.EnergyJ
	}
	res.OracleEnergyJ = sum / float64(len(res.Candidates))
	return res, nil
}

// selectConfigs restricts MatrixConfigs(spec) to the named subset in matrix
// order, as the sweep's config selection does for names inside the matrix.
func selectConfigs(spec soc.Spec, names []string) ([]experiment.Config, error) {
	all := experiment.MatrixConfigs(spec)
	if len(names) == 0 {
		return all, nil
	}
	if err := experiment.ValidateSelection(spec, names); err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []experiment.Config
	for _, c := range all {
		if want[c.Name] {
			out = append(out, c)
			delete(want, c.Name)
		}
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("configs outside the matrix: %v", want)
	}
	return out, nil
}

// sweepThresholds is the sweep's threshold rule: 110% of the worst-across-
// reps lag durations of the fastest candidate (highest clock, ties toward
// the bigger cluster).
func sweepThresholds(res *experiment.MatrixResult) core.Thresholds {
	fasts := make([]oracle.ClusterFixedRun, len(res.Candidates))
	for rep, cands := range res.Candidates {
		best := cands[0]
		bestKHz := res.Model.Cluster(best.Cluster).Table[best.OPPIndex].KHz
		for _, c := range cands[1:] {
			khz := res.Model.Cluster(c.Cluster).Table[c.OPPIndex].KHz
			if khz > bestKHz || (khz == bestKHz && c.Cluster > best.Cluster) {
				best, bestKHz = c, khz
			}
		}
		fasts[rep] = best
	}
	first := fasts[0]
	ref := &core.Profile{Workload: res.Workload.Name, Config: "fastest"}
	for i, lag := range first.Profile.Lags {
		if lag.Spurious {
			ref.Lags = append(ref.Lags, lag)
			continue
		}
		worst := lag.Duration()
		for _, f := range fasts[1:] {
			if i < len(f.Profile.Lags) {
				worst = max(worst, f.Profile.Lags[i].Duration())
			}
		}
		ref.Lags = append(ref.Lags, core.Lag{Index: lag.Index, Label: lag.Label, Begin: lag.Begin, End: lag.Begin.Add(worst)})
	}
	return core.RelativeThresholds(ref, 1.10)
}

// sweepEnv is what every job of one sweep shares.
type sweepEnv struct {
	t        *tracer
	req      int
	w        *workload.Workload
	rec      *workload.Recording
	db       *annotate.DB
	gestures []evdev.Gesture
	model    *power.SoCModel
}

// session returns the lane's warm session for w, booting one on first use.
func (e *sweepEnv) session(l *lane, parent int64, w *workload.Workload) *workload.ReplaySession {
	key := workload.SessionKey(w)
	if s := l.sessions[key]; s != nil {
		return s
	}
	sp := e.t.open(e.req, parent, spanBoot)
	s := workload.NewReplaySession(w, nil)
	e.t.close(sp)
	l.sessions[key] = s
	return s
}

// replayAndMatch forks one captured run and matches its video.
// Candidate runs hand the lane's recycled traces to the device first.
func (e *sweepEnv) replayAndMatch(l *lane, parent int64, w *workload.Workload, govs []governor.Governor,
	name string, seed uint64, candidate bool) (*workload.RunArtifacts, *core.Profile, error) {
	sess := e.session(l, parent, w)
	if candidate {
		sess.Dev.SetTraceScratch(l.traces)
		l.traces = nil
	}
	sp := e.t.open(e.req, parent, spanReplay)
	art := sess.ReplayRecording(e.rec, govs, name, seed, true)
	sp.SimS, sp.Frames, sp.Distinct = art.Window.Seconds(), art.Video.Len(), art.Video.DistinctFrames()
	e.t.close(sp)
	sp = e.t.open(e.req, parent, spanMatch)
	profile, err := match.Match(art.Video, e.db, e.gestures, name, match.Options{Strict: true})
	if err == nil {
		sp.N = len(profile.Actual())
	}
	sp.Failed = err != nil
	e.t.close(sp)
	l.frames.Release(art.Video)
	art.Video = nil
	return art, profile, err
}

// config is one matrix run: replay, match, price.
func (e *sweepEnv) config(l *lane, parent int64, cfg experiment.Config, rep int, seed uint64) (*experiment.Run, error) {
	wc := *e.w
	wc.Profile.FramePool = l.frames
	govs, err := cfg.Governors(wc.Profile)
	if err != nil {
		return nil, err
	}
	art, profile, err := e.replayAndMatch(l, parent, &wc, govs, cfg.Name, seed, false)
	if err != nil {
		return nil, err
	}
	sp := e.t.open(e.req, parent, spanEnergy)
	energy, err := e.model.Energy(art.BusyByCluster)
	var leak float64
	if err == nil && e.model.HasIdle() {
		for i, ct := range art.Clusters {
			if !ct.Idle.Enabled() {
				continue
			}
			var x float64
			if x, err = e.model.IdleLeakEnergy(i, ct.Idle.Residency, ct.Idle.StallTime); err != nil {
				break
			}
			leak += x
		}
	}
	e.t.close(sp)
	if err != nil {
		return nil, err
	}
	return &experiment.Run{
		Config: cfg.Name, Rep: rep, Profile: profile, EnergyJ: energy, LeakEnergyJ: leak,
		BusyCurve: art.BusyCurve, FreqTrace: art.FreqTrace, Clusters: art.Clusters, Migrations: art.Migrations,
	}, nil
}

// candidate is one placement-pinned oracle run: every task on one cluster
// at one OPP, booted as that cluster's single-cluster slice of the spec.
func (e *sweepEnv) candidate(l *lane, parent int64, spec soc.Spec, cluster, opp int, seed uint64) (oracle.ClusterFixedRun, error) {
	cs := spec.Clusters[cluster]
	wc := *e.w
	wc.Profile.SoC = soc.Spec{Name: spec.Name + "-" + cs.Name + "-only", Clusters: []soc.ClusterSpec{cs}}
	if wc.Profile.Thermal.Enabled() {
		wc.Profile.Thermal.Zones = wc.Profile.Thermal.Zones[cluster : cluster+1]
	}
	if cluster < len(wc.Profile.FreqCaps) {
		wc.Profile.FreqCaps = wc.Profile.FreqCaps[cluster : cluster+1]
	} else {
		wc.Profile.FreqCaps = nil
	}
	wc.Profile.ThermalPower = nil
	wc.Profile.FramePool = l.frames
	name := cs.Name + "@" + cs.Table[opp].Label()
	govs := []governor.Governor{governor.NewFixed(cs.Table, opp)}
	art, profile, err := e.replayAndMatch(l, parent, &wc, govs, name, seed, true)
	if err != nil {
		return oracle.ClusterFixedRun{}, err
	}
	l.traces = art.Clusters
	return oracle.ClusterFixedRun{Cluster: cluster, OPPIndex: opp, Profile: profile, BusyCurve: art.BusyCurve}, nil
}

// popSweep describes one RunPopulation call.
type popSweep struct {
	w       *workload.Workload
	spec    soc.Spec
	configs []string
	reps    int
	units   int
	model   population.Model
	thermal thermal.Config
	seed    uint64
}

// population is RunPopulation on the sweep's lanes. It also returns the
// streamed per-run records, in the population's global index order.
func (ts *tracedSweep) population(req int, parent int64, p popSweep) (*experiment.PopulationResult, []report.PopRunRecord, error) {
	t := ts.t
	cfgs, err := selectConfigs(p.spec, p.configs)
	if err != nil {
		return nil, nil, err
	}
	res := &experiment.PopulationResult{
		Workload: p.w.Name, Spec: p.spec.Name, Units: p.units, Reps: p.reps,
		Digests: make(map[string]*experiment.ConfigDigests), OracleEnergy: stats.NewDigest(0),
	}
	for _, c := range cfgs {
		res.Configs = append(res.Configs, c.Name)
		res.Digests[c.Name] = &experiment.ConfigDigests{QoE: stats.NewDigest(0), Energy: stats.NewDigest(0), PeakTemp: stats.NewDigest(0)}
	}
	perUnit := (len(cfgs) + candidates(p.spec)) * p.reps
	var pops []report.PopRunRecord
	for i := 0; i < p.units; i++ {
		sp := t.open(req, parent, spanGenerate)
		unit := population.Generate(p.model, p.spec, p.thermal, p.seed, i)
		t.close(sp)
		wu := *p.w
		wu.Profile.Thermal = unit.Thermal
		wu.Profile.FreqCaps = unit.FreqCaps
		mres, err := ts.matrix(req, parent, &wu, unit.Spec, p.configs, p.reps, population.UnitSeed(p.seed, i))
		if err != nil {
			return nil, nil, fmt.Errorf("unit %d: %w", i, err)
		}
		sp = t.open(req, parent, spanDigest)
		ji := 0
		for _, cfg := range cfgs {
			for rep, r := range mres.Runs[cfg.Name] {
				pr := experiment.PopRun{
					Index: i*perUnit + ji, Unit: i, Config: cfg.Name, Rep: rep,
					IrritationS:  core.Irritation(r.Profile, mres.Thresholds).Seconds(),
					EnergyJ:      r.EnergyJ,
					LeakEnergyJ:  r.LeakEnergyJ,
					TotalEnergyJ: r.TotalEnergyJ(),
					Migrations:   r.Migrations,
				}
				for _, ct := range r.Clusters {
					pr.PeakTempC = max(pr.PeakTempC, ct.Temp.PeakC())
				}
				cd := res.Digests[cfg.Name]
				cd.QoE.Add(pr.IrritationS)
				cd.Energy.Add(pr.TotalEnergyJ)
				sp.N += 2
				if p.thermal.Enabled() {
					cd.PeakTemp.Add(pr.PeakTempC)
					sp.N++
				}
				pops = append(pops, report.NewPopRunRecord(pr))
				res.Runs++
				ji++
			}
		}
		res.OracleEnergy.Add(mres.OracleEnergyJ)
		sp.N++
		t.close(sp)
		if ts.lanes != nil && p.model.Enabled() {
			releaseSessions(ts.lanes, "|"+unit.Spec.Name)
		}
	}
	return res, pops, nil
}

// candidates is how many placement-pinned oracle candidates a sweep of spec
// replays per rep: one per (cluster, OPP) of a multi-cluster spec, none on a
// single-cluster spec, whose fixed-frequency config runs serve instead.
func candidates(spec soc.Spec) int {
	if len(spec.Clusters) < 2 {
		return 0
	}
	n := 0
	for _, cs := range spec.Clusters {
		n += len(cs.Table)
	}
	return n
}

// sweepSimS is the simulated device time of one sweep: its recording plus
// one run window per replay (annotation capture, config runs, replayed
// candidates).
func sweepSimS(rec *workload.Recording, replays int) float64 {
	return rec.Duration.Seconds() + rec.RunWindow().Seconds()*float64(replays)
}

// matrixSimS is the simulated device time a RunMatrix result covered.
func matrixSimS(res *experiment.MatrixResult) float64 {
	c := matrixCounts(res)
	replays := 1 + c.Runs
	if len(res.Spec.Clusters) > 1 {
		replays += c.Candidates // single-cluster candidates are config runs
	}
	return sweepSimS(res.Recording, replays)
}

// populationSimS is the simulated device time of a population sweep of w on
// spec whose result counts units and runs: per unit a recording, its
// annotation capture and its candidates, plus one run window per config run.
// Population results keep no recording; every recording of w lasts
// w.Duration.
func populationSimS(w *workload.Workload, spec soc.Spec, units, reps, runs int) float64 {
	rec := &workload.Recording{Workload: w.Name, Duration: w.Duration}
	return float64(units)*sweepSimS(rec, 1+candidates(spec)*reps) + rec.RunWindow().Seconds()*float64(runs)
}
