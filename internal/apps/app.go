// Package apps models the interactive Android applications the paper's
// volunteers exercised (Table I): Gallery, a Logo Quiz game, Pulse News,
// Movie Studio, multimedia messaging, plus the other pre-installed apps
// (Facebook, Gmail, Music Player, Calculator, Play Store, Browser) and the
// home-screen launcher.
//
// Each app is a small state machine over screens of widgets. A user gesture
// that hits a widget starts an *interaction*: a chain of CPU work bursts
// (whose wall-clock time depends on the DVFS frequency), IO waits (which do
// not), and screen updates. The chain's visible completion is the ground
// truth "input serviced" instant of the paper's Fig. 2 — used to
// auto-annotate workloads once, and to validate the video matcher, but never
// consulted by the matcher itself.
package apps

import (
	"repro/internal/core"
	"repro/internal/screen"
	"repro/internal/sim"
)

// Host is the device-side interface applications program against: work and
// IO scheduling, screen invalidation, animation control, app switching, and
// ground-truth interaction bookkeeping.
type Host interface {
	Now() sim.Time
	Rand() *sim.Rand
	// After schedules fn after d of virtual time (timers, service loops).
	After(d sim.Duration, fn func())
	// AfterQuiet schedules fn after d like After, but quiet
	// (sim.Engine.Quiet): the engine passes it every d without running it
	// until Wake. A loop arms its next tick this way only while that tick
	// would do nothing but re-arm itself d later with AfterQuiet, and it
	// must Wake the tick before anything the tick reads changes.
	AfterQuiet(d sim.Duration, fn func()) sim.EventID
	// Wake makes a tick armed by AfterQuiet live again at the next instant
	// of its period's grid. A stale ID is ignored.
	Wake(id sim.EventID)
	// SpawnWork schedules a CPU burst; onDone fires when it completes.
	// Wall-clock duration depends on the governor's frequency choices.
	SpawnWork(name string, cycles int64, onDone func())
	// SpawnIO schedules a frequency-independent wait (flash, network); the
	// device applies its per-repetition jitter.
	SpawnIO(name string, d sim.Duration, onDone func())
	// Invalidate marks the screen content changed. Every change to state
	// that Render reads must invalidate in the same event: the device keeps
	// a rendered frame that did not read the clock until the next
	// invalidation.
	Invalidate()
	// SetAnimating enables/disables an animation (spinners, progress bars).
	// While any runs, the device charges the small per-frame UI load every
	// vsync, and redraws each vsync only while the frame on screen reads
	// the clock (fb.Now); a progress bar that moves with work chunks is
	// redrawn by their Invalidate.
	SetAnimating(token string, on bool)
	// Launch switches the foreground app, passing an in-flight interaction
	// for the target's Enter to finish.
	Launch(name string, ix *Interaction)
	// InteractionStarted/Finished record ground truth; apps use Begin and
	// Interaction.Finish instead of calling these directly.
	// InteractionFinished reports whether the interaction was newly finished:
	// false means it had already been recorded as finished. The host owns the
	// dedup (keyed on its ground-truth log) so that a fork, whose Seal
	// empties the log, also resets finish idempotence — an Interaction whose
	// work chain replays after a fork finishes again in the new timeline.
	InteractionStarted(label string, class core.HCIClass) int
	InteractionFinished(id int) bool
}

// App is one application. Exactly one app is foreground at a time and
// receives gestures; Render draws the content region.
type App interface {
	Name() string
	// Init binds the host and puts the app in its known initial state (the
	// paper resets the device to a known state before every recording).
	// The device's Seal calls it again before every run, cold or forked, so
	// it must reset every field a run changes. It keeps slice storage
	// (truncate, do not drop), allocates nothing and schedules nothing.
	Init(h Host)
	// Enter makes the app foreground. A non-nil ix is an in-flight launch
	// interaction the app must Finish once its UI is ready.
	Enter(ix *Interaction)
	// HandleTap processes a tap at logical coordinates; false means the tap
	// hit nothing (a spurious input in the paper's Fig. 10 classification).
	HandleTap(x, y int) bool
	// HandleSwipe processes a swipe gesture; false means it had no effect.
	HandleSwipe(x0, y0, x1, y1 int) bool
	// HandleBack processes the nav-bar back button; false means ignored.
	HandleBack() bool
	// Render draws the app content for the current state, painting all of
	// screen.ContentRect first. It reads the render instant only through
	// fb.Now, which marks the frame as changing with the clock; any other
	// state it reads must invalidate the screen whenever it changes.
	Render(fb *screen.Framebuffer)
	// VolatileRects lists screen regions that change independently of
	// interaction state (blinking cursors, media progress). The annotation
	// stage masks them, as the paper's workload-creator GUI does.
	VolatileRects() []screen.Rect
}

// Service is a background workload generator (music decoding, account sync,
// news refresh) that runs regardless of the foreground app. Background load
// is what the paper's issue (1) is about: governors raising frequency "when
// the user does not need extra performance".
type Service interface {
	Name() string
	// Start puts the service in its start state and schedules its first
	// tick, drawing any start jitter from h.Rand(). The device's Seal calls
	// it before every run, cold or forked, on an engine it has just
	// rewound, so Start binds its loop closures on the first call only and
	// allocates nothing after that.
	Start(h Host)
}

// Interaction is an in-flight ground-truth interaction: a chain of work/IO
// steps ending in Finish.
type Interaction struct {
	h        Host
	id       int
	finished bool
	onFinish []func()
}

// BeginInteraction registers the ground-truth beginning of an interaction.
func BeginInteraction(h Host, label string, class core.HCIClass) *Interaction {
	return &Interaction{h: h, id: h.InteractionStarted(label, class)}
}

// Work appends a CPU step; then runs at its completion.
func (ix *Interaction) Work(name string, cycles int64, then func()) {
	ix.h.SpawnWork(name, cycles, then)
}

// IO appends a frequency-independent wait step.
func (ix *Interaction) IO(name string, d sim.Duration, then func()) {
	ix.h.SpawnIO(name, d, then)
}

// OnFinish registers a callback invoked when the interaction finishes.
func (ix *Interaction) OnFinish(fn func()) { ix.onFinish = append(ix.onFinish, fn) }

// Finish marks the ground-truth end: the state the user perceives as "input
// serviced" is now on screen. Idempotent within one timeline; the host's
// ground-truth log is the source of truth, so a fork that rewinds the log
// lets the replayed chain finish again.
func (ix *Interaction) Finish() {
	if !ix.h.InteractionFinished(ix.id) {
		return
	}
	ix.finished = true
	for _, fn := range ix.onFinish {
		fn()
	}
}

// Finished reports whether Finish was called on this Interaction value (a
// local cache of the host's ground-truth record, used by tests).
func (ix *Interaction) Finished() bool { return ix.finished }

// Chunks runs n sequential CPU bursts of cyclesEach, invoking update(i)
// (1-based) after each chunk — the progressive loading pattern that yields
// the paper's Fig. 7 suggester example — and then final() after the last.
func (ix *Interaction) Chunks(name string, n int, cyclesEach int64, update func(i int), final func()) {
	var step func(i int)
	step = func(i int) {
		ix.Work(name, cyclesEach, func() {
			if update != nil {
				update(i)
			}
			ix.h.Invalidate()
			if i < n {
				step(i + 1)
			} else if final != nil {
				final()
			}
		})
	}
	if n <= 0 {
		if final != nil {
			final()
		}
		return
	}
	step(1)
}

// Base carries the state shared by all app implementations.
type Base struct {
	H       Host
	AppName string
	// InFlight is true while an interaction owned by this app is running;
	// apps ignore conflicting gestures during it (the workload scripts are
	// written so this never triggers, mirroring the paper's careful users).
	InFlight bool
}

// Begin starts an interaction labelled "<app>.<label>", tracking busy state.
func (b *Base) Begin(label string, class core.HCIClass) *Interaction {
	ix := BeginInteraction(b.H, b.AppName+"."+label, class)
	b.InFlight = true
	ix.OnFinish(func() { b.InFlight = false })
	return ix
}

// Instant records an interaction that completes within the same UI pass
// after a small dispatch cost: tap → tiny work → new state visible.
func (b *Base) Instant(label string, class core.HCIClass, cycles int64, apply func()) {
	ix := b.Begin(label, class)
	ix.Work(b.AppName+"."+label, cycles, func() {
		if apply != nil {
			apply()
		}
		b.H.Invalidate()
		ix.Finish()
	})
}

// Cost constants for interaction work, in cycles. At the 0.30 GHz minimum
// the core retires 300 cycles/µs, so e.g. CostAppLaunch/12 chunks ≈ 6 s at
// the bottom and ≈ 0.8 s at 2.15 GHz — the Gallery launch scale of Fig. 7.
const (
	CostKeyPress     = 8_000_000
	CostTinyUI       = 12_000_000
	CostSimpleUI     = 30_000_000
	CostScroll       = 25_000_000
	CostMediumUI     = 120_000_000
	CostHeavyUI      = 350_000_000
	CostAppLaunchHot = 40_000_000
	CostAppLaunch    = 1_800_000_000 // split into chunks by callers
	CostImageSave    = 2_800_000_000
	CostVideoExport  = 3_500_000_000
)
