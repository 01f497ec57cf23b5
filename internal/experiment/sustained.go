package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// SustainedOptions configure a sustained-workload thermal sweep: the same
// recording replayed back to back Repeats times under each configuration,
// once with record-only thermal zones (temperatures traced, no throttling)
// and once with the trip configured — the QoE-vs-skin-temperature trade the
// governor rankings invert under.
type SustainedOptions struct {
	// Options are the base sweep options (seed, reps, pool, factor,
	// cancellation, streaming hooks). Reps defaults to 2 here; Configs must
	// stay empty, since RunSustained takes its configs as an argument.
	Options
	// Repeats is how many back-to-back passes of the recording make one
	// sustained run (default 3).
	Repeats int
	// Thermal is the throttled arm's config; it must have a trip set on at
	// least one zone. The unthrottled arm runs the same zones with trips
	// removed, so both arms trace temperatures.
	Thermal thermal.Config
}

// recordOnly strips every trip from a thermal config, leaving the zones
// stepping (and tracing temperatures) without ever capping.
func recordOnly(cfg thermal.Config) thermal.Config {
	out := thermal.Config{TickPeriod: cfg.TickPeriod}
	for _, zc := range cfg.Zones {
		out.Zones = append(out.Zones, thermal.ZoneConfig{Zone: zc.Zone})
	}
	return out
}

// SustainedRun is the analysed outcome of one sustained replay, immutable
// once the sweep returns: the run itself (config, rep, lag profile, energy,
// per-cluster freq/busy/temp/throttle traces) and its arm — trip configured
// or record-only.
type SustainedRun struct {
	*Run
	Throttled bool
}

// IrritationS returns the run's user irritation in seconds under th.
func (r *SustainedRun) IrritationS(th core.Thresholds) float64 {
	return core.Irritation(r.Profile, th).Seconds()
}

// ThrottleEvents sums cap changes across all clusters.
func (r *SustainedRun) ThrottleEvents() int {
	n := 0
	for _, ct := range r.Clusters {
		n += ct.Throttle.Len()
	}
	return n
}

// SustainedResult holds a full sustained sweep: for each configuration, Reps
// runs per arm, ordered deterministically by (config, arm, rep) regardless
// of worker interleaving.
type SustainedResult struct {
	// Workload names the dataset; Repeats is the back-to-back pass count.
	Workload string
	Repeats  int
	// Configs lists config names in sweep order; Runs holds every cell in
	// deterministic (config, arm, rep) order.
	Configs []string
	Runs    []*SustainedRun
	// Thresholds is the sustained relative rule: Factor (110%) of the best
	// record-only duration per lag.
	Thresholds core.Thresholds
	// Duration is the sustained recording's active length; Window adds the
	// replay tail margin (idle cooldown) after the last input.
	Duration sim.Duration
	Window   sim.Duration
}

// RunsFor returns the runs of one (config, arm) cell in rep order.
func (res *SustainedResult) RunsFor(config string, throttled bool) []*SustainedRun {
	var out []*SustainedRun
	for _, r := range res.Runs {
		if r.Config == config && r.Throttled == throttled {
			out = append(out, r)
		}
	}
	return out
}

// MeanIrritationS returns a cell's mean irritation in seconds.
func (res *SustainedResult) MeanIrritationS(config string, throttled bool) float64 {
	runs := res.RunsFor(config, throttled)
	if len(runs) == 0 {
		return 0
	}
	var s float64
	for _, r := range runs {
		s += r.IrritationS(res.Thresholds)
	}
	return s / float64(len(runs))
}

// MeanPeakC returns a cell's mean peak temperature of cluster i.
func (res *SustainedResult) MeanPeakC(config string, throttled bool, cluster int) float64 {
	runs := res.RunsFor(config, throttled)
	if len(runs) == 0 {
		return 0
	}
	var s float64
	for _, r := range runs {
		s += r.Clusters[cluster].Temp.PeakC()
	}
	return s / float64(len(runs))
}

// RunSustained executes the sustained thermal sweep for one workload on its
// profile's SoC: record once, repeat the recording, annotate once
// (record-only thermal), then replay every configuration × {record-only,
// throttled} × Reps on the sweep kernel — forked off warm per-arm sessions,
// with the same panic containment, cancellation and streaming as RunMatrix
// (throttled-arm runs stream as Kind "throttled").
func RunSustained(w *workload.Workload, configs []Config, opts SustainedOptions) (*SustainedResult, error) {
	if opts.Reps <= 0 {
		opts.Reps = 2
	}
	opts.Options = opts.Options.withDefaults()
	if opts.Repeats <= 0 {
		opts.Repeats = 3
	}
	if len(opts.Configs) > 0 {
		return nil, fmt.Errorf("experiment: sustained sweeps take their configs as an argument, not Options.Configs")
	}
	spec := w.Profile.SoCSpec()
	if !opts.Thermal.Enabled() {
		return nil, fmt.Errorf("experiment: sustained sweep needs a thermal config")
	}
	if err := opts.Thermal.Validate(len(spec.Clusters)); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	model, err := spec.Calibrate(0)
	if err != nil {
		return nil, fmt.Errorf("experiment: calibrate %s: %w", spec.Name, err)
	}

	// The two arms share the platform and the calibrated heat model; only
	// the trips differ, so each arm forks off its own warm session.
	arms := make([]*workload.Workload, 2)
	for i, th := range []thermal.Config{recordOnly(opts.Thermal), opts.Thermal} {
		wa := *w
		wa.Profile.Thermal = th
		wa.Profile.ThermalPower = model
		arms[i] = &wa
	}
	s, err := prepare(w, model, arms[0].Profile, opts.Repeats, opts.Options)
	if err != nil {
		return nil, err
	}
	res := &SustainedResult{
		Workload: w.Name,
		Repeats:  opts.Repeats,
		Duration: s.rec.Duration,
		Window:   s.rec.RunWindow(),
	}
	for _, cfg := range configs {
		res.Configs = append(res.Configs, cfg.Name)
	}

	jobs := configJobs(configs, len(arms), opts.Reps)
	// Per arm: the label in errors and the Kind its runs stream as.
	armNames := []string{"record-only", "throttled"}
	armKinds := []string{"config", "throttled"}
	opts.progress("[%s] replaying %d configs x 2 arms x %d reps = %d sustained runs",
		w.Name, len(configs), opts.Reps, len(jobs))
	res.Runs = make([]*SustainedRun, len(jobs))
	err = opts.fanOut(w.Name, len(jobs), nil, func(ji int) string {
		return fmt.Sprintf("%s (%s) rep %d", jobs[ji].cfg.Name, armNames[jobs[ji].arm], jobs[ji].rep)
	}, func(ji int, seed uint64, scratch *replayScratch) (RunUpdate, error) {
		j := jobs[ji]
		r, err := s.executeRun(arms[j.arm], j.cfg, j.rep, seed, scratch)
		if err != nil {
			return RunUpdate{}, err
		}
		res.Runs[ji] = &SustainedRun{Run: r, Throttled: j.arm == 1}
		return RunUpdate{Kind: armKinds[j.arm], Config: j.cfg.Name, Rep: j.rep, Run: r}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Thresholds = sustainedThresholds(res.Runs, opts.Factor)
	return res, nil
}

// sustainedThresholds applies the paper's relative rule to the sustained
// sweep: each lag's irritation threshold is factor (paper: 110%) times the
// best duration any record-only (unthrottled) run achieved for it. Throttling then registers
// as irritation exactly where it stretches a lag beyond what the same
// platform does with thermals unconstrained — the HCI class ceilings
// (e.g. 12 s for a complex task) would swallow the whole effect.
func sustainedThresholds(runs []*SustainedRun, factor float64) core.Thresholds {
	var ref *core.Profile
	for _, r := range runs {
		if r.Throttled {
			continue
		}
		if ref == nil {
			cp := *r.Profile
			cp.Lags = append([]core.Lag(nil), r.Profile.Lags...)
			ref = &cp
			continue
		}
		for i := range ref.Lags {
			if i >= len(r.Profile.Lags) || ref.Lags[i].Spurious {
				continue
			}
			if d := r.Profile.Lags[i].Duration(); d < ref.Lags[i].Duration() {
				ref.Lags[i].End = ref.Lags[i].Begin.Add(d)
			}
		}
	}
	if ref == nil {
		return core.UniformThresholds(core.SimpleFrequent.Threshold())
	}
	return core.RelativeThresholds(ref, factor)
}
