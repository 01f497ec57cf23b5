// Package workload implements the paper's workload suite (§III-A, Table I):
// deterministic user-behaviour scripts that stand in for the five volunteers
// ("no further instructions were given, beyond asking that they exercise the
// software"), a driver that performs those scripts on a simulated device
// while the evdev recorder captures the input trace, and the replay runner
// used for every experiment execution.
//
// The scripts' think times follow the volunteers' crucial (if implicit)
// property: a user naturally waits for the system to respond before the next
// input, so the recorded gaps are long enough that replays at the lowest
// fixed frequency stay in sync — the requirement §II-E states for the
// matcher ("the executed input events [must] stay in sync with the state of
// the system").
package workload

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/evdev"
	"repro/internal/governor"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/video"
)

// DefaultWaitFactor is the driver's worst-case slowdown allowance for the
// CPU-bound part of a lag: work observed at recording time (under the stock
// interactive governor, so at up to 2.15 GHz) can stretch by
// max_freq/min_freq ≈ 7.2× at the 0.30 GHz fixed configuration; 9 adds
// margin for run-queue contention with background services.
const DefaultWaitFactor = 9.0

// WaitMargin is the absolute extra the driver allows on top of the scaled
// tail: it covers a background sync burst monopolising its round-robin share
// at the lowest frequency.
const WaitMargin = 700 * sim.Millisecond

// Step is one element of a user script: a gesture aimed at the live device
// (or a pure pause), followed by think time once the device has visibly
// responded.
type Step struct {
	Name string
	// Gesture returns the gesture to perform given the current device state
	// (so scripts can aim at live widget positions). nil means a pure pause.
	Gesture func(d *device.Device) *evdev.Gesture
	// Think is the pause after the interaction completes (or after the
	// gesture, for spurious inputs).
	Think sim.Duration
	// Factor overrides DefaultWaitFactor (0 keeps the default).
	Factor float64
}

// Workload is one dataset of the suite.
type Workload struct {
	Name        string
	Description string // the Table I text
	Profile     device.Profile
	Duration    sim.Duration
	// Script builds the step list; it must be deterministic.
	Script func() []Step
}

// Recording is a captured input trace — the only artefact the record phase
// produces, replayable on any configuration (paper contribution 1).
type Recording struct {
	Workload string
	Duration sim.Duration
	Events   []evdev.Event
}

// RunWindow returns the wall-clock window used for every replay of this
// recording: the recording length plus a tail margin so the slowest
// configuration finishes its last lag inside the window.
func (r *Recording) RunWindow() sim.Duration { return r.Duration + 60*sim.Second }

// Repeat concatenates a recording back to back n times, shifting each copy
// by the recording duration — the sustained-workload primitive for thermal
// studies, where one pass of a dataset is too short to heat the package but
// N passes of the identical input trace are. The recorded think-time margins
// hold for every copy, since each copy's gaps were sized for the worst-case
// replay slowdown. n < 1 is treated as 1.
func (r *Recording) Repeat(n int) *Recording {
	if n < 1 {
		n = 1
	}
	out := &Recording{
		Workload: r.Workload,
		Duration: sim.Duration(int64(r.Duration) * int64(n)),
	}
	out.Events = make([]evdev.Event, 0, len(r.Events)*n)
	for i := 0; i < n; i++ {
		shift := sim.Duration(int64(r.Duration) * int64(i))
		for _, ev := range r.Events {
			ev.Time = ev.Time.Add(shift)
			out.Events = append(out.Events, ev)
		}
	}
	return out
}

// driver performs a script on a device, waiting after each interaction the
// way a human user does.
type driver struct {
	dev     *device.Device
	enc     *evdev.Encoder
	steps   []Step
	i       int
	pending int    // ground-truth index we are waiting on, -1 if none
	nextFn  func() // next bound once, so step scheduling never allocates
}

// runScript installs the driver on the device and schedules the first step.
func runScript(dev *device.Device, steps []Step) {
	drv := &driver{dev: dev, enc: evdev.NewEncoder(), steps: steps, pending: -1}
	drv.nextFn = drv.next
	dev.OnInteraction = drv.onInteraction
	dev.Eng.AfterFunc(500*sim.Millisecond, drv.nextFn)
}

func (drv *driver) next() {
	if drv.i >= len(drv.steps) {
		return
	}
	step := drv.steps[drv.i]
	drv.i++
	if step.Gesture == nil {
		drv.dev.Eng.AfterFunc(step.Think, drv.nextFn)
		return
	}
	g := step.Gesture(drv.dev)
	if g == nil {
		drv.dev.Eng.AfterFunc(step.Think, drv.nextFn)
		return
	}
	g.Start = drv.dev.Eng.Now()
	drv.pending = len(drv.dev.GroundTruths())
	for _, ev := range drv.enc.Encode(*g) {
		ev := ev
		drv.dev.Eng.AtFunc(ev.Time, func() { drv.dev.Inject(ev) })
	}
}

// onInteraction resumes the script when the awaited interaction completes:
// the user "sees" the response, allows for the worst-case replay slowdown,
// then thinks.
func (drv *driver) onInteraction(gt device.GroundTruth) {
	if gt.Index != drv.pending {
		return
	}
	drv.pending = -1
	step := drv.steps[drv.i-1]
	factor := step.Factor
	if factor == 0 {
		factor = DefaultWaitFactor
	}
	now := drv.dev.Eng.Now()
	resumeAt := now.Add(step.Think)
	if !gt.Spurious {
		// Only the processing tail after the gesture's lift scales with
		// frequency; the press-to-lift span replays verbatim.
		lag := gt.CompleteTime.Sub(gt.InputTime)
		gestureSpan := gt.DispatchTime.Sub(gt.InputTime)
		tail := lag - gestureSpan
		if tail < 0 {
			tail = 0
		}
		worstCase := gt.InputTime.Add(gestureSpan + sim.Duration(factor*float64(tail)) + WaitMargin)
		if worstCase.Add(step.Think) > resumeAt {
			resumeAt = worstCase.Add(step.Think)
		}
	}
	drv.dev.Eng.AtFunc(resumeAt, drv.nextFn)
}

// Record performs the workload's script on a fresh device under the stock
// interactive governor (the default on the paper's Android image) and
// captures the evdev trace — §II-B1: "the recording process needs no
// external hardware support, it is executed on the user's device".
func (w *Workload) Record(seed uint64) (*Recording, []device.GroundTruth, error) {
	eng := sim.NewEngine()
	dev := device.NewMulti(eng, seed, StockGovernors(w.Profile), w.Profile)
	rec := record.Attach(dev)
	runScript(dev, w.Script())
	eng.RunUntil(sim.Time(w.Duration))
	truths := dev.GroundTruths()
	for i, gt := range truths {
		if !gt.Complete {
			return nil, nil, fmt.Errorf("workload %s: interaction %d (%s) did not complete within the recording window", w.Name, i, gt.Label)
		}
	}
	return &Recording{Workload: w.Name, Duration: w.Duration, Events: rec.Events()}, truths, nil
}

// StockGovernors returns one fresh interactive governor per cluster of the
// profile's SoC — the stock configuration of the paper's Android image,
// applied per frequency domain.
func StockGovernors(prof device.Profile) []governor.Governor {
	spec := prof.SoCSpec()
	govs := make([]governor.Governor, len(spec.Clusters))
	for i := range govs {
		govs[i] = governor.NewInteractive()
	}
	return govs
}

// RunArtifacts bundles everything one replay produces: the screen video (if
// captured), the device ground truth (used only by annotation/validation),
// and the frequency/busy traces the paper collects "in the background for
// each run" for energy accounting.
type RunArtifacts struct {
	Workload string
	Config   string
	Video    *video.Video
	Truths   []device.GroundTruth
	// FreqTrace, BusyCurve and BusyByOPP describe the first cluster (the
	// whole SoC on single-cluster specs): the transition trace, the
	// SoC-aggregate busy curve, and the per-OPP busy histogram.
	FreqTrace *trace.FreqTrace
	BusyCurve *trace.BusyCurve
	BusyByOPP []sim.Duration
	// Clusters and BusyByCluster carry the per-cluster traces and per-OPP
	// busy histograms of every frequency domain, in cluster order.
	Clusters      []*trace.ClusterTraces
	BusyByCluster [][]sim.Duration
	Migrations    int
	// Duration is the recording's active length; Window adds the tail
	// margin that lets the slowest configuration finish its last lag.
	// Steady-state summaries should integrate over Duration, not Window.
	Duration sim.Duration
	Window   sim.Duration
}

// Replay re-executes a recording on a fresh single-cluster device under the
// given governor, capturing a video when capture is true. This is Part B of
// the paper's Fig. 4: "fully repeatable and can be executed an arbitrary
// number of times for the same workload with different system
// configurations". Multi-cluster profiles replay through ReplayMulti.
func Replay(w *Workload, rec *Recording, gov governor.Governor, configName string, seed uint64, capture bool) *RunArtifacts {
	return ReplayMulti(w, rec, []governor.Governor{gov}, configName, seed, capture)
}

// ReplayMulti re-executes a recording with one governor per cluster of the
// workload profile's SoC spec — the per-cluster governor assignment of a
// big.LITTLE configuration. It is a one-shot ReplaySession: the cold path
// and the forked path are the same code, so the golden traces pin both.
func ReplayMulti(w *Workload, rec *Recording, govs []governor.Governor, configName string, seed uint64, capture bool) *RunArtifacts {
	return NewReplaySession(w, rec).Replay(govs, configName, seed, capture)
}
