// Package experiment orchestrates the paper's evaluation matrix (§III-A):
// each workload replayed at every fixed frequency and under the three
// governors — "altogether we execute each workload 5·(14+3) = 85 times" —
// followed by oracle construction and the figure-level aggregations.
// RunMatrix is that sweep on any SoC spec (the paper's study is RunMatrix
// on soc.Dragonboard); RunSustained adds a thermal arm axis; RunPopulation
// runs RunMatrix's two halves over a device fleet, preparing each unit
// while the previous one replays. Every sweep runs on one kernel: record
// and annotate once (prepare), then fan the replays out over a worker pool
// with panic containment, cancellation and streaming (fanOut), each replay
// forked off a warm session and analysed by executeRun.
//
// Units: energies are joules, irritation is virtual time (sim.Duration;
// Seconds() for display), frequencies carry their ladder's kHz. Concurrency:
// the Run* entry points fan replays out over an internal bounded worker pool
// — each replay owns a private sim engine and device — and their results are
// immutable after return; the entry points themselves are safe to call from
// multiple goroutines as long as each call gets its own workload value.
package experiment

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/evdev"
	"repro/internal/governor"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config is one system configuration of the sweep: a per-cluster governor
// assignment under one name. Configs are values; their factory closures must
// be safe to call from any worker goroutine (each call builds fresh,
// unshared governor instances).
type Config struct {
	// Name is the row label: an OPP label ("0.96 GHz"), a governor name
	// ("ondemand"), or a mixed arm ("powersave/interactive").
	Name string
	// OPPIndex is >= 0 for fixed frequencies (an index into Table), -1 for
	// governor configs.
	OPPIndex int
	// NewGovernor builds one fresh governor instance; it is invoked once
	// per cluster per replay.
	NewGovernor func() governor.Governor
	// ArmNames, when non-empty, names one governor per cluster and replaces
	// the factory closures: Governors resolves each name against its
	// cluster's own ladder via GovernorByName. Mixed arms are built this way
	// so an unknown name is a returned error (a 400 by the time it crosses
	// the serve API), never a worker panic.
	ArmNames []string
	// Table is the OPP ladder the config was built against (set by
	// AllConfigs). On multi-cluster specs, fixed-frequency configs use it to
	// translate their label onto each cluster's own ladder.
	Table power.Table
}

// Governors builds the per-cluster governor instances for a device profile.
// A fixed-frequency config on a multi-cluster spec pins every cluster at the
// lowest OPP of its own ladder at or above the labelled frequency (cpufreq
// RELATION_L), clamped to the ladder top — applying the source-ladder index
// verbatim would pin smaller clusters at frequencies unrelated to the label.
// Misconfigured configs — unknown arm names, arm counts that don't match the
// cluster count, a fixed label with no source ladder — are returned errors:
// configs are user input by the time sweeps run as a service, and a bad one
// must fail the request, not the process.
func (c Config) Governors(prof device.Profile) ([]governor.Governor, error) {
	spec := prof.SoCSpec()
	if len(c.ArmNames) > 0 {
		if len(c.ArmNames) != len(spec.Clusters) {
			return nil, fmt.Errorf("experiment: config %q names %d governors for a %d-cluster spec",
				c.Name, len(c.ArmNames), len(spec.Clusters))
		}
		govs := make([]governor.Governor, len(spec.Clusters))
		for i, cs := range spec.Clusters {
			g, err := GovernorByName(c.ArmNames[i], cs.Table)
			if err != nil {
				return nil, err
			}
			govs[i] = g
		}
		return govs, nil
	}
	govs := make([]governor.Governor, len(spec.Clusters))
	if c.OPPIndex >= 0 && len(spec.Clusters) > 1 {
		if len(c.Table) == 0 {
			// Without the source ladder the labelled frequency cannot be
			// translated; falling back to per-cluster NewGovernor would pin
			// smaller clusters at an index unrelated to the label and skew
			// results silently.
			return nil, fmt.Errorf("experiment: fixed config %q on a %d-cluster spec needs Config.Table (use AllConfigs)",
				c.Name, len(spec.Clusters))
		}
		khz := c.Table[c.OPPIndex].KHz
		for i, cs := range spec.Clusters {
			govs[i] = governor.NewFixed(cs.Table, cs.Table.IndexAtLeast(khz))
		}
		return govs, nil
	}
	for i := range govs {
		govs[i] = c.NewGovernor()
	}
	return govs, nil
}

// AllConfigs returns the paper's 17 configurations in its figures' x-axis
// order: the 14 fixed frequencies ascending, then conservative, interactive,
// ondemand.
func AllConfigs(tbl power.Table) []Config {
	var out []Config
	for i := range tbl {
		i := i
		out = append(out, Config{
			Name:        tbl[i].Label(),
			OPPIndex:    i,
			NewGovernor: func() governor.Governor { return governor.NewFixed(tbl, i) },
			Table:       tbl,
		})
	}
	out = append(out,
		Config{Name: "conservative", OPPIndex: -1, NewGovernor: func() governor.Governor { return governor.NewConservative() }},
		Config{Name: "interactive", OPPIndex: -1, NewGovernor: func() governor.Governor { return governor.NewInteractive() }},
		Config{Name: "ondemand", OPPIndex: -1, NewGovernor: func() governor.Governor { return governor.NewOndemand() }},
	)
	return out
}

// GovernorNames lists the three governor configurations.
var GovernorNames = []string{"conservative", "interactive", "ondemand"}

// Run is the analysed outcome of one replay. Runs are built by worker
// goroutines but immutable once a sweep returns, so reading them from any
// goroutine afterwards is safe. Sweeps keep busy summaries, not busy
// curves: they fill Busy and ClusterBusy, leave BusyCurve nil and every
// Clusters[i].Busy empty, and fill everything else.
type Run struct {
	// Config names the configuration replayed; Rep is the repetition index.
	Config string
	Rep    int
	// Profile is the matched lag profile of the run.
	Profile *core.Profile
	// EnergyJ is the run's dynamic energy in joules.
	EnergyJ float64
	// LeakEnergyJ is the run's idle leakage energy in joules: per-state
	// residency priced by the C-state ladder, plus wake stalls at the
	// shallowest-state floor. 0 on specs without idle ladders.
	LeakEnergyJ float64
	// Busy is what oracle pricing reads of the SoC-aggregate busy curve,
	// and ClusterBusy is each cluster's total busy time, in cluster order.
	Busy        *oracle.BusySummary
	ClusterBusy []sim.Duration
	// BusyCurve and FreqTrace are the SoC-aggregate busy curve and the
	// first cluster's frequency transition trace. Sweeps leave BusyCurve
	// nil.
	BusyCurve *trace.BusyCurve
	FreqTrace *trace.FreqTrace
	// Clusters and Migrations carry the per-cluster traces and scheduler
	// migration count for multi-cluster SoC specs (one entry, zero
	// migrations on the paper's Dragonboard). Sweep runs keep every series
	// but the busy curve, which stays empty.
	Clusters   []*trace.ClusterTraces
	Migrations int
}

// Options configures a sweep.
type Options struct {
	Reps    int     // repetitions per configuration (paper: 5)
	Workers int     // parallel replays (0 → GOMAXPROCS; ignored when Pool is set)
	Factor  float64 // threshold slack over the fastest run (paper: 1.10)
	Seed    uint64  // master seed; every job derives its own from it
	// Progress, when set, receives per-phase progress messages. It is
	// called from the sweep's own goroutine only, never from workers.
	Progress func(msg string)
	// Pool, when set, executes the sweep's replays on a caller-owned
	// long-lived worker pool instead of a transient one, so warmed replay
	// sessions carry over between sweeps. The pool runs one sweep at a
	// time; its width overrides Workers.
	Pool *Pool
	// Context, when set, cancels the sweep between replays: in-flight
	// replays finish, no further ones start, and the sweep returns the
	// context's error. The pool and its warm sessions stay reusable.
	Context context.Context
	// Configs, when non-empty, restricts a matrix sweep to the named
	// subset of MatrixConfigs (unknown names are an error). On
	// single-cluster specs the selection must retain at least one fixed
	// frequency, which doubles as the oracle's candidate set and the
	// threshold reference. Sustained sweeps take their configs as an
	// argument and reject a selection here.
	Configs []string
	// OnRun, when set, receives the sweep's per-replay update stream: a
	// "start" update just before each replay begins, then its outcome once
	// it ends, or a "fault" update when it failed: the error for a replay
	// that returned one, the panic message and stack when the pool
	// contained a panic. The serve layer turns the stream into
	// NDJSON and its stall watchdog's liveness signal. It is called from
	// worker goroutines concurrently; the callback must be safe for
	// concurrent use. A panic in a start update's callback is contained as
	// that replay's fault, before the replay takes a warm session.
	OnRun func(RunUpdate)
}

// RunUpdate describes one replay of a sweep, delivered through Options.OnRun
// as workers start and finish it. Index/Total are positions in the sweep's
// deterministic job order, not completion order.
type RunUpdate struct {
	// Kind is "start" for a replay about to begin (only Index and Total are
	// set), "config" for matrix runs and the record-only arm of a sustained
	// sweep, "throttled" for the sustained throttled arm, "candidate" for
	// the oracle's placement-pinned runs (Run is nil for candidates), and
	// "fault" for a replay that failed (Err is set, Run is nil; Stack is
	// set when the pool contained a panic).
	Kind   string
	Config string // config name, or "<cluster>@<OPP label>" for candidates
	Rep    int
	Index  int
	Total  int
	Run    *Run
	// Err and Stack describe a failed replay on Kind "fault" updates: the
	// returned error, or the panic message and the worker stack captured at
	// the recovery site.
	Err   string
	Stack string
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.Pool != nil {
		o.Workers = o.Pool.Workers()
	} else if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Factor <= 0 {
		o.Factor = 1.10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// emit delivers one update to the OnRun hook, if any.
func (o Options) emit(u RunUpdate) {
	if o.OnRun != nil {
		o.OnRun(u)
	}
}

// sweep holds what every replay of one sweep shares: the calibrated model
// and Part A's artefacts — the recording the replays consume, its gestures
// and the annotation database.
type sweep struct {
	model    *power.SoCModel
	rec      *workload.Recording
	truths   []device.GroundTruth
	gestures []evdev.Gesture
	db       *annotate.DB
}

// prepare is the front half every sweep shares, the paper's Part A: record
// the workload once under the master seed, concatenate the trace repeats
// times back to back (sustained sweeps), and annotate the result from one
// capture replay under the stock governors on the annotation profile.
func prepare(w *workload.Workload, model *power.SoCModel, annProf device.Profile, repeats int, opts Options) (*sweep, error) {
	if err := opts.Context.Err(); err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", w.Name, err)
	}
	opts.progress("[%s] recording workload on %s", w.Name, w.Profile.SoCSpec().Name)
	rec, truths, err := w.Record(opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiment: record %s: %w", w.Name, err)
	}
	if repeats > 1 {
		rec = rec.Repeat(repeats)
	}
	s := &sweep{model: model, rec: rec, truths: truths, gestures: match.Gestures(rec.Events)}

	opts.progress("[%s] annotating (Part A)", w.Name)
	ann := &workload.Workload{Name: w.Name, Profile: annProf, Duration: rec.Duration}
	art := workload.ReplayMulti(ann, rec, workload.StockGovernors(annProf), "annotation", opts.Seed^0xA11, true)
	if s.db, err = annotate.Build(w.Name, art.Video, s.gestures, art.Truths, annotate.BuildOptions{MinStill: 1}); err != nil {
		return nil, fmt.Errorf("experiment: annotate %s: %w", w.Name, err)
	}
	return s, nil
}

// job is one replay of a sweep: a config on one arm (the sustained sweep's
// record-only or throttled workload) at one repetition, or — on
// multi-cluster matrix sweeps — an oracle candidate pinned to one
// (cluster, OPP).
type job struct {
	cfg          Config
	arm, rep     int
	candidate    bool
	cluster, opp int
}

// configJobs lays out the config × arm × rep job space in the order every
// sweep's job seeds derive from: config-major, then arm, then rep.
func configJobs(configs []Config, arms, reps int) []job {
	var jobs []job
	for _, cfg := range configs {
		for arm := 0; arm < arms; arm++ {
			for rep := 0; rep < reps; rep++ {
				jobs = append(jobs, job{cfg: cfg, arm: arm, rep: rep})
			}
		}
	}
	return jobs
}

// sideJob is work that rides along a replay batch as its first-claimed job,
// so it fills a worker the replays would leave idle. It sits outside the
// batch's job index space: no seed or OnRun update, and it cannot fail the
// batch. A panic in it is contained like a replay's and kept in panicked
// for the job's owner to report. A batch that returns without error has run
// it: only cancellation stops workers claiming jobs.
type sideJob struct {
	run      func()
	panicked *PanicError
}

// fanOut is the replay half every sweep shares: jobs [0, n) over the
// sweep's pool (the caller's long-lived one, or a transient one of Workers
// width), each announced by a "start" update and seeded from the master
// seed and its job index. run replays job ji and returns the update to
// stream through OnRun when it ends; Index and Total are filled in here. A
// replay that returns an error streams a "fault" update with the error and
// no stack. A panic, in the replay or in the start update's callback, is
// contained into a *PanicError and streamed as a "fault" update too.
// side, when set, is claimed before any replay. The sweep fails with the
// context's error, or else with the first failed job in job order, labelled
// by label.
func (o Options) fanOut(name string, n int, side *sideJob, label func(ji int) string,
	run func(ji int, seed uint64, scratch *replayScratch) (RunUpdate, error)) error {
	pool := o.Pool
	if pool == nil {
		pool = NewPool(o.Workers)
	}
	// Pool job 0 is the side job when there is one; replay ji is pool job
	// ji+off.
	off := 0
	if side != nil {
		off = 1
	}
	errs := make([]error, n)
	poolErr := pool.run(o.Context, off+n, func(pj int, scratch *replayScratch) {
		if pj < off {
			side.run()
			return
		}
		ji := pj - off
		o.emit(RunUpdate{Kind: "start", Index: ji, Total: n})
		u, err := run(ji, o.Seed^(uint64(ji+1)*0x9e3779b9), scratch)
		if errs[ji] = err; err != nil {
			u = RunUpdate{Kind: "fault", Err: err.Error()}
		}
		u.Index, u.Total = ji, n
		o.emit(u)
	}, func(pj int, pe *PanicError) {
		if pj < off {
			side.panicked = pe
			return
		}
		ji := pj - off
		errs[ji] = pe
		o.emit(RunUpdate{Kind: "fault", Index: ji, Total: n, Err: pe.Error(), Stack: string(pe.Stack)})
	})
	if poolErr != nil {
		return fmt.Errorf("experiment: %s: %w", name, poolErr)
	}
	for ji, err := range errs {
		if err != nil {
			return fmt.Errorf("experiment: %s %s: %w", name, label(ji), err)
		}
	}
	return nil
}

// executeRun forks one config replay of the sweep's recording off the
// worker's warm session for w (whose profile selects the spec and thermal
// arm), matches its lags, prices its energy and summarises its busy curves,
// whose storage goes back to the worker for its next replay.
func (s *sweep) executeRun(w *workload.Workload, cfg Config, rep int, seed uint64, scratch *replayScratch) (*Run, error) {
	w = scratch.pooledWorkload(w)
	govs, err := cfg.Governors(w.Profile)
	if err != nil {
		return nil, err
	}
	sess := scratch.session(w)
	scratch.lend(sess.Dev, false)
	art := sess.ReplayRecording(s.rec, govs, cfg.Name, seed, true)
	profile, err := match.Match(art.Video, s.db, s.gestures, cfg.Name, match.Options{Strict: true})
	if err != nil {
		return nil, err
	}
	// The video exists only for the matcher; recycle its frames for the
	// worker's next repetition.
	scratch.release(art.Video)
	art.Video = nil
	energy, err := s.model.Energy(art.BusyByCluster)
	if err != nil {
		return nil, err
	}
	var leak float64
	if s.model.HasIdle() {
		if leak, err = idleLeakEnergy(s.model, art.Clusters); err != nil {
			return nil, err
		}
	}
	clusterBusy := make([]sim.Duration, len(art.Clusters))
	for i, ct := range art.Clusters {
		clusterBusy[i] = ct.Busy.Total()
	}
	r := &Run{
		Config:      cfg.Name,
		Rep:         rep,
		Profile:     profile,
		EnergyJ:     energy,
		LeakEnergyJ: leak,
		Busy:        oracle.SummarizeBusy(art.BusyCurve, profile),
		ClusterBusy: clusterBusy,
		FreqTrace:   art.FreqTrace,
		Clusters:    art.Clusters,
		Migrations:  art.Migrations,
	}
	scratch.reclaim(art, false)
	return r, nil
}

// idleLeakEnergy sums the model's idle leakage pricing over every
// idle-enabled cluster of a replay.
func idleLeakEnergy(model *power.SoCModel, clusters []*trace.ClusterTraces) (float64, error) {
	var leak float64
	for i, ct := range clusters {
		if !ct.Idle.Enabled() {
			continue
		}
		e, err := model.IdleLeakEnergy(i, ct.Idle.Residency, ct.Idle.StallTime)
		if err != nil {
			return 0, err
		}
		leak += e
	}
	return leak, nil
}

// TotalEnergyJ returns the run's dynamic plus leakage energy in joules.
func (r *Run) TotalEnergyJ() float64 { return r.EnergyJ + r.LeakEnergyJ }

// ClassifyInputs computes the Fig. 10 counts from a recording's gestures and
// ground truth.
func ClassifyInputs(gestures []evdev.Gesture, truths []device.GroundTruth) (taps, swipes, actual, spurious int) {
	for _, g := range gestures {
		if g.Kind == evdev.Tap {
			taps++
		} else {
			swipes++
		}
	}
	for _, gt := range truths {
		if gt.Spurious {
			spurious++
		} else {
			actual++
		}
	}
	return
}
