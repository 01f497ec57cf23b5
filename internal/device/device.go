// Package device assembles the simulated mobile phone: the SoC core with its
// frequency governor, the touch input pipeline (evdev events in, gestures
// dispatched to the foreground app), the screen with status bar and
// navigation bar, background services, and the capture hook the video
// recorder samples at 30 fps.
//
// It is the stand-in for the paper's Dragonboard APQ8074 running Android
// 4.2.2 with one core enabled. Sealing a Device is the paper's "reset to a
// known state": same seed plus same inputs yields the same run.
package device

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/evdev"
	"repro/internal/governor"
	"repro/internal/netproxy"
	"repro/internal/power"
	"repro/internal/screen"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/video"
)

// GroundTruth is the device-side record of one input gesture: when it was
// made, whether anything handled it, and when its effects became visible.
// The annotation stage uses it once per workload (playing the human who
// picks the right suggested frame); the matcher never reads it.
type GroundTruth struct {
	Index        int
	Label        string
	Class        core.HCIClass
	Kind         evdev.GestureKind
	InputTime    sim.Time // touch-down
	DispatchTime sim.Time // gesture lift / dispatch
	Spurious     bool
	Complete     bool
	CompleteTime sim.Time
	MaskRects    []screen.Rect // volatile regions of the completion screen
}

// Profile selects the "device image": which background services are active.
// Workload datasets differ in their installed/active services, which shapes
// their out-of-lag load.
type Profile struct {
	MusicAutoPlay bool
	NewsSync      bool
	NewsSyncEvery sim.Duration
	AccountSync   bool
	AccountEvery  sim.Duration
	Telemetry     bool
	// ExtraServices are factories: every booted device gets its own service
	// instances, so concurrent replays never share state.
	ExtraServices []func() apps.Service
	// NetProxy, when set, routes every IO access through the paper's
	// future-work deterministic network proxy: in Record mode observed
	// latencies are stored, in Replay mode they are served verbatim,
	// removing IO jitter between runs entirely.
	NetProxy *netproxy.Proxy
	// SoC selects the simulated silicon. The zero value boots the paper's
	// single-core Dragonboard APQ8074; multi-cluster specs (for example
	// soc.BigLittle44) route app and service work through the HMP scheduler
	// and need one governor per cluster (NewMulti).
	SoC soc.Spec
	// Thermal configures the per-cluster RC thermal zones and throttlers.
	// The zero value disables thermal simulation entirely: no zones are
	// booted, no tick runs, and existing traces are bit-for-bit unchanged.
	Thermal thermal.Config
	// ThermalPower, when set, is the calibrated per-cluster power model the
	// thermal zones draw their heat input from; it must match the profile's
	// SoC spec. When nil, a thermal-enabled boot calibrates one itself.
	// Sweeps that boot many devices share one model here instead of paying
	// for calibration per replay. The model is read-only and safe to share
	// across concurrently replaying devices.
	ThermalPower *power.SoCModel
	// FreqCaps, when non-empty, pins a standing per-cluster frequency cap
	// through the arbiter under the "battery" source — the population
	// model's battery-age peak-current limit. Entry i caps cluster i at OPP
	// index FreqCaps[i]; a negative entry leaves that cluster uncapped.
	// Caps are applied at every Seal and composed min-wins with thermal
	// throttling by the arbiter.
	FreqCaps []int
	// FramePool, when set, supplies recycled storage for captured frames.
	// Sweeps give each replay worker its own pool and hand matched videos
	// back to it, so repeated replays capture without allocating. Leave nil
	// whenever the video's frames outlive the replay (annotation builds,
	// anything that stores frames). A pool is not safe for concurrent use.
	FramePool *video.FramePool
}

const (
	// animFrameWork is the per-frame UI work while an animation runs
	// (spinner redraw, progress updates), in cycles.
	animFrameWork = 1_500_000
	// ioJitterFrac scales IO durations per repetition.
	ioJitterFrac = 0.08
	// workJitterFrac scales CPU burst sizes per repetition.
	workJitterFrac = 0.02
)

// SoCSpec returns the profile's SoC spec, defaulting to the paper's
// Dragonboard when unset.
func (p Profile) SoCSpec() soc.Spec {
	if len(p.SoC.Clusters) == 0 {
		return soc.Dragonboard()
	}
	return p.SoC
}

// DefaultProfile returns the standard image: telemetry plus account sync.
func DefaultProfile() Profile {
	return Profile{AccountSync: true, Telemetry: true}
}

// Device is the simulated phone.
type Device struct {
	// Eng is the engine the device runs on. The device owns it: every Seal
	// rewinds it to time zero and drops whatever was queued, so schedule a
	// run's events (input replay, capture) only after Seal.
	Eng *sim.Engine
	// SoC is the simulated silicon: one or more clusters plus the task
	// scheduler. On a device with record-only thermal zones, work submitted
	// here directly rather than through SpawnWork can run while a quiet
	// thermal tick assumes zero heat; its temperatures are then wrong.
	SoC *soc.SoC
	// Govs holds one governor per cluster, in cluster order.
	Govs []governor.Governor

	prof Profile
	rand *sim.Rand

	appsByName map[string]apps.App
	appOrder   []string
	foreground apps.App
	launcher   *apps.Launcher
	music      *apps.MusicService
	svcs       []apps.Service

	// fb is the framebuffer Frame renders into, cached the frame it last
	// captured, and dirty whether the content may differ from cached.
	fb     screen.Framebuffer
	dirty  bool
	cached *video.Frame
	anims  map[string]bool

	// Periodic tick machinery, pre-bound once at boot. The loop counters
	// live on the device (not in closure locals) so Seal can reset the tick
	// cadence of a reused device. The vsync tick is demand driven: the chain runs only while an animation is active (busy-curve
	// sampling moved into the clusters' own accounting), so vsyncOn tracks
	// whether a tick event is currently in flight.
	vsyncOn       bool
	vsyncFn       func()
	minuteFn      func()
	thermalFn     func()
	thermalPeriod sim.Duration
	// thermalID is the pending thermal tick and thermalAt the instant the
	// zones were last stepped at; while the tick is quiet the two bracket
	// the ticks catchUpThermal still owes the zones.
	thermalID sim.EventID
	thermalAt sim.Time

	// traceScratch, busyCurveScratch and gridScratch, when set via
	// SetTraceScratch, SetBusyScratch and SetGridScratch, are recycled
	// storage for the next Seal's per-cluster traces, SoC-aggregate busy
	// curve and per-cluster busy grids, consumed by that Seal.
	traceScratch     []*trace.ClusterTraces
	busyCurveScratch *trace.BusyCurve
	gridScratch      [][]sim.Duration

	// input assembly
	curGesture  *evdev.Gesture
	gotX, gotY  bool
	subscribers []func(evdev.Event)

	// ground truth
	truths        []GroundTruth
	dispatchIdx   int // index of gesture being dispatched, -1 otherwise
	OnInteraction func(gt GroundTruth)
	// OnDirty, if set, observes every clean→dirty transition of the screen,
	// firing before the content change lands (see markDirty). Run-scoped:
	// Seal clears it.
	OnDirty func()

	// ClusterTraces holds the per-cluster frequency and busy traces, in
	// cluster order. FreqTrace aliases the first cluster's transition trace;
	// BusyCurve is the SoC-aggregate busy curve (equal to the first cluster's
	// on single-cluster specs) that oracle construction consumes.
	ClusterTraces []*trace.ClusterTraces
	FreqTrace     *trace.FreqTrace
	BusyCurve     *trace.BusyCurve

	// Zones holds one RC thermal zone per cluster on thermal-enabled
	// profiles (nil otherwise); Power is the calibrated per-cluster power
	// model the zones draw their heat input from.
	Zones []*thermal.Zone
	Power *power.SoCModel

	throttlers []*thermal.Throttler
	// prevBusy and busyScratch are per-cluster per-OPP busy histograms: the
	// previous tick's snapshot and a reusable buffer for the current one, so
	// the thermal tick integrates only the busy delta and never allocates.
	prevBusy    [][]sim.Duration
	busyScratch [][]sim.Duration
	riseScratch []float64 // per-zone rise snapshot for coupling
	heatW       []float64 // per-zone heat input of the step being taken
}

// New boots a single-cluster device with the given governor and profile. The
// paper resets the device to a known state before recording; New is that
// reset. Profiles selecting a multi-cluster SoC need one governor per
// cluster — boot those through NewMulti.
func New(eng *sim.Engine, seed uint64, gov governor.Governor, prof Profile) *Device {
	spec := prof.SoCSpec()
	if len(spec.Clusters) > 1 {
		panic(fmt.Sprintf("device: spec %q has %d clusters; boot it with NewMulti and one governor per cluster",
			spec.Name, len(spec.Clusters)))
	}
	return NewMulti(eng, seed, []governor.Governor{gov}, prof)
}

// NewMulti boots a device on the profile's SoC spec with one governor per
// cluster (a nil entry leaves that cluster at its lowest OPP). App and
// service work is routed through the SoC scheduler: on the Dragonboard spec
// that degenerates to the original single-core submission path, so the
// paper's runs reproduce bit for bit.
//
// NewMulti is exactly Boot followed by Seal. A replay session forks a run by
// calling Seal again on its warm device, so a forked run and a cold NewMulti
// with the same seed and governors take the same path to the boot instant.
func NewMulti(eng *sim.Engine, seed uint64, govs []governor.Governor, prof Profile) *Device {
	d := Boot(eng, prof)
	d.Seal(seed, govs)
	return d
}

// busyStep is the busy-curve sampling period: one 30 Hz display frame.
const busyStep = 33333 * sim.Microsecond

// bootRandSeed seeds the device RNG while Seal restarts the background
// services. Their start jitter deliberately comes from this fixed stream, not
// the run seed, so every run on a profile starts its services at the same
// phases; Seal reseeds the RNG with the run seed right after.
const bootRandSeed uint64 = 0xb007_b007_b007_b007

// Boot builds the device hardware and software shared by every run on the
// profile: silicon, installed apps, background services, thermal zones and
// throttlers with their power model, and the pre-bound periodic tick
// closures. It only builds: it schedules nothing, draws nothing from the RNG,
// attaches no governors and creates no traces. A booted device runs nothing
// until Seal puts it at its boot instant.
func Boot(eng *sim.Engine, prof Profile) *Device {
	d := &Device{
		Eng:         eng,
		SoC:         soc.New(eng, prof.SoCSpec()),
		prof:        prof,
		rand:        new(sim.Rand),
		appsByName:  make(map[string]apps.App),
		anims:       make(map[string]bool),
		dispatchIdx: -1,
	}
	for i, cl := range d.SoC.Clusters() {
		// The hook reads d.ClusterTraces at call time (not capture time), so
		// one closure per cluster survives every Seal's fresh trace set.
		i := i
		cl.OnFreqChange = func(at sim.Time, idx int) {
			if i < len(d.ClusterTraces) {
				d.ClusterTraces[i].Freq.Append(at, idx)
			}
		}
	}
	d.music = apps.NewMusicService(prof.MusicAutoPlay)
	d.installApps()
	d.installServices()
	d.bindTicks()
	d.bootThermal()
	return d
}

// Seal puts the device at its boot instant and readies it for one run. It
// rewinds the engine, resets the SoC and restarts every background service
// from the fixed boot RNG stream; then it reseeds the RNG with the run seed,
// resets every app, the launcher, the network proxy and the device's own run
// state, attaches one governor per cluster, creates the run's traces, resets
// the thermal zones and schedules the periodic ticks. The first Seal after
// Boot and every later one do exactly the same, so a forked run is
// indistinguishable from a cold NewMulti with the same arguments.
func (d *Device) Seal(seed uint64, govs []governor.Governor) {
	spec := d.SoC.Spec()
	if len(govs) != len(spec.Clusters) {
		panic(fmt.Sprintf("device: spec %q has %d clusters but %d governors were supplied",
			spec.Name, len(spec.Clusters), len(govs)))
	}
	d.Eng.Reset()
	d.SoC.Reset()
	d.rand.Reseed(bootRandSeed)
	for _, s := range d.svcs {
		s.Start(d)
	}
	d.rand.Reseed(seed)

	// Run-scoped state from a previous life of this device.
	d.truths = d.truths[:0]
	d.dispatchIdx = -1
	d.curGesture = nil
	d.gotX, d.gotY = false, false
	d.subscribers = d.subscribers[:0]
	for k := range d.anims {
		delete(d.anims, k)
	}
	d.cached = nil
	d.OnInteraction = nil
	d.OnDirty = nil
	// At the boot instant every app is in the state its Init produces and
	// the proxy at its first access.
	for _, name := range d.appOrder {
		d.appsByName[name].Init(d)
	}
	d.launcher.Init(d)
	if d.prof.NetProxy != nil {
		d.prof.NetProxy.Rewind()
	}

	// Fresh traces per run: a caller that retains a run's artefacts never
	// races the next Seal. Scratch setters opt back into reuse.
	if d.busyCurveScratch != nil {
		d.BusyCurve = d.busyCurveScratch
		d.BusyCurve.Reset()
		d.busyCurveScratch = nil
	} else {
		d.BusyCurve = trace.NewBusyCurve(busyStep)
	}
	ts := d.traceScratch
	d.traceScratch = nil
	gs := d.gridScratch
	d.gridScratch = nil
	if ts != nil {
		// Recycled traces: the caller surrendered last run's artefacts, so
		// their slice header is reusable storage too (alloc-free fork loop).
		d.ClusterTraces = ts[:0]
	} else {
		// No scratch means the previous run's artefacts may still be alive,
		// and RunArtifacts.Clusters aliases this very slice — truncating it
		// in place would swap the new run's traces under the retained one.
		d.ClusterTraces = make([]*trace.ClusterTraces, 0, len(spec.Clusters))
	}
	for i, cl := range d.SoC.Clusters() {
		var ct *trace.ClusterTraces
		if i < len(ts) && ts[i] != nil {
			ct = ts[i]
			ct.Reset()
			ct.Name = cl.Name()
		} else {
			ct = trace.NewClusterTraces(cl.Name(), busyStep)
		}
		ct.Freq.Append(0, cl.OPPIndex())
		// The cluster fills the busy grid itself as it settles; the samples
		// come back into ct.Busy via FinishTraces after the run window.
		grid := ct.Busy.Cum
		if i < len(gs) {
			grid = gs[i]
		}
		cl.StartBusyGrid(busyStep, grid[:0])
		ct.Busy.Cum = nil
		d.ClusterTraces = append(d.ClusterTraces, ct)
	}
	d.FreqTrace = d.ClusterTraces[0].Freq

	d.Govs = append(d.Govs[:0], govs...)
	for i, gov := range govs {
		if gov != nil {
			gov.Start(d.SoC.Cluster(i))
		}
	}
	d.sealThermal()
	for i, cl := range d.SoC.Clusters() {
		if i < len(d.prof.FreqCaps) && d.prof.FreqCaps[i] >= 0 {
			cl.SetFreqCap("battery", d.prof.FreqCaps[i])
		}
	}
	// Arm the vsync chain before the launcher enters: vsyncOn suppresses the
	// on-demand re-arm in SetAnimating, so an Enter that starts an animation
	// rides the t=0 tick scheduled below instead of starting a second chain.
	d.vsyncOn = true
	d.foreground = d.launcher
	d.foreground.Enter(nil)
	d.dirty = true
	d.Eng.AtFunc(0, d.vsyncFn)
	d.Eng.AfterFunc(sim.Duration(sim.Minute), d.minuteFn)
}

// FinishTraces materialises the lazily-sampled busy grids into the run's
// trace series: each cluster's curve plus the SoC aggregate (their
// elementwise sum, exactly what the retired 30 Hz sampling tick collected).
// It first steps the thermal zones through the ticks a quiet thermal tick
// passed, so the temperature traces and zones are complete. Replay runners
// call it once after the run window has fully executed, with the engine
// clock standing at the window.
func (d *Device) FinishTraces(window sim.Duration) {
	d.catchUpThermal()
	until := sim.Time(window)
	agg := d.BusyCurve.Cum[:0]
	for i, ct := range d.ClusterTraces {
		g := d.SoC.Cluster(i).FinishBusyGrid(until)
		ct.Busy.Cum = g
		if i == 0 {
			agg = append(agg, g...)
		} else {
			for j, v := range g {
				agg[j] += v
			}
		}
	}
	d.BusyCurve.Cum = agg
}

// bindTicks creates the periodic tick closures once per boot. Each closure
// reads its cadence counter from the device, so Seal resets the tick phase
// along with everything else, and re-binding is never needed.
func (d *Device) bindTicks() {
	// vsync: charges animation work every frame while an animation runs,
	// and invalidates only a frame that reads the clock (or when no frame
	// has been rendered yet). Any other frame changes only when its app
	// invalidates it — a progress bar moves when a work chunk completes —
	// so redrawing it every 33 ms would paint identical pixels.
	// The chain is demand driven — with no animation active the tick lets
	// itself die instead of burning an engine event every 33 ms for the whole
	// window (busy-curve sampling happens inside cluster accounting now);
	// SetAnimating re-arms it on the next grid instant. Ticks only ever fire
	// on multiples of busyStep, so rescheduling stays on the grid.
	d.vsyncFn = func() {
		if !d.animating() {
			d.vsyncOn = false
			return
		}
		d.SpawnWork("ui.anim", animFrameWork, nil)
		if d.cached == nil || d.fb.ClockRead() {
			d.markDirty()
		}
		d.Eng.AtFunc(d.Eng.Now().Add(busyStep), d.vsyncFn)
	}
	// Minute clock: invalidates the screen at each minute boundary so the
	// status bar clock advances — the content the paper's Fig. 8 masks.
	d.minuteFn = func() {
		d.markDirty()
		d.Eng.AfterFunc(sim.Duration(sim.Minute), d.minuteFn)
	}
	d.thermalFn = func() {
		d.thermalTick()
		d.armThermal()
	}
}

// bootThermal builds one RC thermal zone and throttler per cluster on a
// thermal-enabled profile, with the calibrated per-cluster power model that
// prices their heat input: the cluster's mean dynamic power over each tick
// window, integrated the way energy accounting does. Throttler verdicts feed
// the cluster's frequency-cap arbiter under the "thermal" source, and cap
// transitions land in the run's throttle trace.
func (d *Device) bootThermal() {
	cfg := d.prof.Thermal
	if !cfg.Enabled() {
		return
	}
	n := d.SoC.NumClusters()
	if err := cfg.Validate(n); err != nil {
		panic(fmt.Sprintf("device: %v", err))
	}
	model := d.prof.ThermalPower
	if model == nil {
		var err error
		if model, err = d.SoC.Spec().Calibrate(0); err != nil {
			panic(fmt.Sprintf("device: thermal calibration: %v", err))
		}
	} else if len(model.Models) != n {
		panic(fmt.Sprintf("device: thermal power model covers %d clusters, spec has %d", len(model.Models), n))
	}
	d.Power = model
	d.thermalPeriod = cfg.Tick()
	d.prevBusy = make([][]sim.Duration, n)
	d.busyScratch = make([][]sim.Duration, n)
	d.riseScratch = make([]float64, n)
	d.heatW = make([]float64, n)
	for i, zc := range cfg.Zones {
		cl := d.SoC.Cluster(i)
		d.prevBusy[i] = make([]sim.Duration, len(cl.Table()))
		d.busyScratch[i] = make([]sim.Duration, len(cl.Table()))
		d.Zones = append(d.Zones, thermal.NewZone(zc.Zone))
		d.throttlers = append(d.throttlers, thermal.NewThrottler(zc.Throttle, len(cl.Table())-1))
		// Like OnFreqChange, the hook reads the trace set at call time.
		i := i
		cl.OnCapChange = func(at sim.Time, capIdx int, capped bool) {
			d.ClusterTraces[i].Throttle.Append(at, capIdx, capped)
		}
	}
}

// sealThermal puts the zones, throttlers and busy history back at their boot
// state, traces the starting temperatures and schedules the first thermal
// tick. No-op on a profile without thermal zones.
func (d *Device) sealThermal() {
	if len(d.Zones) == 0 {
		return
	}
	d.thermalAt = 0
	for i, z := range d.Zones {
		z.Reset()
		d.throttlers[i].Reset()
		clear(d.prevBusy[i])
		d.ClusterTraces[i].Temp.Append(0, z.TempC())
	}
	d.thermalID = d.Eng.AtFunc(sim.Time(d.thermalPeriod), d.thermalFn)
}

// armThermal queues the next thermal tick one period on, quiet
// (sim.Engine.Quiet) while no throttler is enabled and no cluster has work.
// Every tick from then until work is spawned steps the zones at zero heat
// and does nothing else: no busy time accrues, so each would compute the
// same zero heat input, and with no throttler it never caps a cluster. The
// engine passes those ticks, and catchUpThermal takes their zone steps when
// work is spawned or the run ends, before anything reads a temperature. A
// throttling zone keeps every tick live, because its throttler can lift a
// cap during an idle window.
func (d *Device) armThermal() {
	d.thermalID = d.Eng.AfterFunc(d.thermalPeriod, d.thermalFn)
	for i, th := range d.throttlers {
		if th.Enabled() || d.SoC.Cluster(i).Runnable() > 0 {
			return
		}
	}
	d.Eng.Quiet(d.thermalID, d.thermalPeriod)
}

// catchUpThermal wakes a quiet thermal tick and takes the zone steps of the
// ticks the engine passed: every tick after the last step and before the
// one now due, which runs live. Their heat input is the zero a live tick
// computes when no cluster ran. No-op while the tick is live.
func (d *Device) catchUpThermal() {
	due, ok := d.Eng.Wake(d.thermalID)
	if !ok {
		return
	}
	clear(d.heatW)
	for at := d.thermalAt.Add(d.thermalPeriod); at < due; at = at.Add(d.thermalPeriod) {
		d.stepZones(at)
	}
}

// thermalTick takes each cluster's mean dynamic power over the tick
// period as its zone's heat input and steps every zone.
func (d *Device) thermalTick() {
	for i := range d.Zones {
		// Mean dynamic power over the tick window, integrated from the
		// per-OPP busy delta since the previous tick — the same integral
		// energy accounting uses, without re-walking history or allocating.
		// All but one or two OPPs sit idle over a tick; skipping their zero
		// deltas leaves the sum bit-identical (each would add +0).
		cur := d.SoC.Cluster(i).CopyBusyByOPP(d.busyScratch[i])
		var heatJ float64
		dyn := d.Power.Cluster(i).DynW
		for k, b := range cur {
			if delta := b - d.prevBusy[i][k]; delta != 0 {
				heatJ += float64(dyn[k] * delta.Seconds()) // no fused multiply-add
			}
		}
		d.prevBusy[i], d.busyScratch[i] = cur, d.prevBusy[i]
		d.heatW[i] = heatJ / d.thermalPeriod.Seconds()
	}
	d.stepZones(d.Eng.Now())
}

// stepZones advances every zone by one tick period ending at instant at,
// with heatW as heat input plus cross-cluster coupling, traces the new
// temperatures and evaluates throttling. It is the one zone step of the
// live tick and of catchUpThermal.
func (d *Device) stepZones(at sim.Time) {
	// Snapshot rises first so cross-cluster coupling is order-independent
	// within the tick.
	rises := d.riseScratch
	for i, z := range d.Zones {
		rises[i] = z.RiseC()
	}
	for i, z := range d.Zones {
		var coupleC float64
		if len(d.Zones) > 1 {
			var sum float64
			for j, r := range rises {
				if j != i {
					sum += r
				}
			}
			coupleC = z.Params().CouplingFrac * sum / float64(len(d.Zones)-1)
		}
		temp := z.Step(d.thermalPeriod, d.heatW[i], coupleC)
		d.ClusterTraces[i].Temp.Append(at, temp)
		if th := d.throttlers[i]; th.Enabled() {
			if capIdx, changed := th.Update(temp); changed {
				if th.Throttled() {
					d.SoC.Cluster(i).SetFreqCap("thermal", capIdx)
				} else {
					d.SoC.Cluster(i).ClearFreqCap("thermal")
				}
			}
		}
	}
	d.thermalAt = at
}

// installApps builds the installed apps and the launcher. Seal puts each in
// its initial state (App.Init) before every run.
func (d *Device) installApps() {
	register := func(a apps.App) {
		d.appsByName[a.Name()] = a
		d.appOrder = append(d.appOrder, a.Name())
	}
	register(apps.NewGallery())
	register(apps.NewLogoQuiz())
	register(apps.NewPulseNews())
	register(apps.NewMessaging())
	register(apps.NewMovieStudio())
	register(apps.NewFacebook())
	register(apps.NewGmail())
	register(apps.NewMusicPlayer(d.music))
	register(apps.NewCalculator())
	register(apps.NewPlayStore())
	register(apps.NewBrowser())
	register(apps.NewRetroRunner())
	d.launcher = apps.NewLauncher(d.appOrder)
	d.appsByName[d.launcher.Name()] = d.launcher
}

// installServices builds the profile's background services. Seal starts
// each (Service.Start) before every run.
func (d *Device) installServices() {
	d.svcs = append(d.svcs[:0], d.music)
	if d.prof.NewsSync {
		d.svcs = append(d.svcs, apps.NewNewsSyncService(d.prof.NewsSyncEvery))
	}
	if d.prof.AccountSync {
		d.svcs = append(d.svcs, apps.NewAccountSyncService(d.prof.AccountEvery))
	}
	if d.prof.Telemetry {
		d.svcs = append(d.svcs, apps.NewTelemetryService())
	}
	for _, mk := range d.prof.ExtraServices {
		d.svcs = append(d.svcs, mk())
	}
}

// ReserveTraces pre-sizes every trace series for a run of the given
// wall-clock window, so the periodic samplers (vsync busy curve, thermal
// tick) append without reallocating for the whole run. Callers that know
// their window (the replay runner does) call this right after boot.
func (d *Device) ReserveTraces(window sim.Duration) {
	if window <= 0 {
		return
	}
	if d.BusyCurve.Step > 0 {
		d.BusyCurve.Reserve(int(window/d.BusyCurve.Step) + 2)
	}
	tick := sim.Duration(0)
	if d.prof.Thermal.Enabled() {
		tick = d.prof.Thermal.Tick()
	}
	for i, ct := range d.ClusterTraces {
		if tick > 0 {
			ct.Temp.Reserve(int(window/tick) + 2)
		}
		// During the run the busy samples accrue in the cluster's lazily
		// filled grid (Seal hands it the storage; FinishTraces returns the
		// series to ct.Busy), so the busy reservation belongs there — ct.Busy
		// itself is empty until the run ends.
		d.SoC.Cluster(i).ReserveBusyGrid(int(window/busyStep) + 2)
	}
}

// SnapshotIdle copies every idle-enabled cluster's residency counters into
// its ClusterTraces.Idle: per-state residency, wake and mispredict counts,
// wake-stall and active-wall time. Unlike the event traces, which accumulate
// as the run executes, the idle numbers are counters inside soc.Cluster;
// replay runners call this once after the run window so the artefacts carry
// them. Clusters without a ladder keep an empty IdleTrace.
func (d *Device) SnapshotIdle() {
	for i, cl := range d.SoC.Clusters() {
		if !cl.IdleEnabled() {
			continue
		}
		it := d.ClusterTraces[i].Idle
		it.States = it.States[:0]
		for _, st := range cl.IdleStates() {
			it.States = append(it.States, st.Name)
		}
		it.Residency = cl.CopyIdleResidency(it.Residency)
		it.Wakes = cl.IdleWakes()
		it.Mispredicts = cl.IdleMispredicts()
		it.StallTime = cl.IdleStallTime()
		it.ActiveTime = cl.ActiveWallTime()
	}
}

// SetFramePool redirects frame capture to a recycled pool (or back to fresh
// allocation with nil). Replay sessions call it before each Seal so one
// booted device can serve sweeps that pool frames and callers that keep them.
func (d *Device) SetFramePool(p *video.FramePool) { d.prof.FramePool = p }

// FramePool returns the pool frames are captured from (nil when frames are
// freshly allocated).
func (d *Device) FramePool() *video.FramePool { return d.prof.FramePool }

// SetTraceScratch hands recycled per-cluster trace storage to the next Seal,
// which consumes it: cluster i reuses ts[i] (Reset, renamed) instead of
// allocating fresh series. Without it every Seal allocates fresh traces,
// which is what lets callers retain run artefacts; hand a replay's
// ClusterTraces back only once nothing reads them any more. Not safe for
// concurrent use.
func (d *Device) SetTraceScratch(ts []*trace.ClusterTraces) { d.traceScratch = ts }

// SetBusyScratch hands a recycled SoC-aggregate busy curve to the next Seal,
// which consumes it. Only callers that do not retain the run's BusyCurve
// (e.g. the fork allocation gate) should use this.
func (d *Device) SetBusyScratch(c *trace.BusyCurve) { d.busyCurveScratch = c }

// SetGridScratch hands recycled per-cluster busy-grid storage to the next
// Seal, which consumes it: cluster i samples into grids[i] instead of its
// trace's own storage. Only callers that do not retain the run's
// per-cluster busy curves (sweeps that keep busy summaries) should use this.
func (d *Device) SetGridScratch(grids [][]sim.Duration) { d.gridScratch = grids }

// App returns a registered app by name (nil if unknown).
func (d *Device) App(name string) apps.App { return d.appsByName[name] }

// Launcher returns the home screen app.
func (d *Device) Launcher() *apps.Launcher { return d.launcher }

// Foreground returns the current foreground app.
func (d *Device) Foreground() apps.App { return d.foreground }

// GroundTruths returns the per-gesture ground truth recorded so far.
func (d *Device) GroundTruths() []GroundTruth { return d.truths }

// ---- apps.Host implementation ----

// Now implements apps.Host.
func (d *Device) Now() sim.Time { return d.Eng.Now() }

// Rand implements apps.Host.
func (d *Device) Rand() *sim.Rand { return d.rand }

// After implements apps.Host. The callback goes to the engine as-is, so a
// service loop that reschedules one pre-bound func value never allocates.
func (d *Device) After(dur sim.Duration, fn func()) {
	d.Eng.AfterFunc(dur, fn)
}

// AfterQuiet implements apps.Host: fn goes to the engine as After's does
// and is marked quiet with period dur.
func (d *Device) AfterQuiet(dur sim.Duration, fn func()) sim.EventID {
	id := d.Eng.AfterFunc(dur, fn)
	d.Eng.Quiet(id, dur)
	return id
}

// Wake implements apps.Host.
func (d *Device) Wake(id sim.EventID) { d.Eng.Wake(id) }

// SpawnWork implements apps.Host, applying the per-repetition work jitter.
// Fire-and-forget bursts (nil onDone — every animation frame, every
// background service tick) submit without a completion wrapper. It is the
// only way work reaches the SoC, so it first wakes a quiet thermal tick and
// catches its zones up.
func (d *Device) SpawnWork(name string, cycles int64, onDone func()) {
	d.catchUpThermal()
	jittered := int64(d.rand.JitterFrac(sim.Duration(cycles), workJitterFrac))
	if jittered < 1 {
		jittered = 1
	}
	if onDone == nil {
		d.SoC.Submit(name, soc.Cycles(jittered), nil)
		return
	}
	d.SoC.Submit(name, soc.Cycles(jittered), func(sim.Time) { onDone() })
}

// SpawnIO implements apps.Host, applying the per-repetition IO jitter. With
// a network proxy configured, the jittered latency is recorded or replaced
// by the recorded one, making IO deterministic across runs.
func (d *Device) SpawnIO(name string, dur sim.Duration, onDone func()) {
	jittered := d.rand.JitterFrac(dur, ioJitterFrac)
	if d.prof.NetProxy != nil {
		jittered = d.prof.NetProxy.Access(name, jittered)
	}
	if onDone == nil {
		return
	}
	d.Eng.AfterFunc(jittered, onDone)
}

// Invalidate implements apps.Host.
func (d *Device) Invalidate() { d.markDirty() }

// Changing reports whether the next Frame may differ from the last one:
// the screen was invalidated since, or an animation runs. It is the video
// recorder's probe. The recorder keeps capturing through an animation even
// while its frames stay clean, so it wakes and ticks at the instants, and
// in the same order against other events, as it did when every vsync
// invalidated the screen; a clean capture tick returns the cached frame.
func (d *Device) Changing() bool { return d.dirty || d.animating() }

// markDirty flips the clean→dirty transition and notifies OnDirty. The hook
// fires before the flag is set, so an observer (the demand-driven video
// recorder) can still read the pre-change content for the capture instants
// it slept through.
func (d *Device) markDirty() {
	if d.dirty {
		return
	}
	if d.OnDirty != nil {
		d.OnDirty()
	}
	d.dirty = true
}

// SetAnimating implements apps.Host. Starting an animation re-arms the
// demand-driven vsync chain on the next grid instant strictly after now —
// matching the always-on tick, whose same-instant firing preceded the event
// that set the flag and so never charged animation work at the set instant.
func (d *Device) SetAnimating(token string, on bool) {
	if on {
		if !d.vsyncOn {
			d.vsyncOn = true
			next := (int64(d.Eng.Now())/int64(busyStep) + 1) * int64(busyStep)
			d.Eng.AtFunc(sim.Time(next), d.vsyncFn)
		}
		d.anims[token] = true
	} else {
		delete(d.anims, token)
	}
	d.markDirty()
}

func (d *Device) animating() bool { return len(d.anims) > 0 }

// Launch implements apps.Host: switch the foreground app, handing it the
// in-flight launch interaction.
func (d *Device) Launch(name string, ix *apps.Interaction) {
	a, ok := d.appsByName[name]
	if !ok {
		if ix != nil {
			ix.Finish()
		}
		return
	}
	d.foreground = a
	d.markDirty()
	a.Enter(ix)
}

// InteractionStarted implements apps.Host: binds the interaction to the
// gesture currently being dispatched.
func (d *Device) InteractionStarted(label string, class core.HCIClass) int {
	idx := d.dispatchIdx
	if idx < 0 {
		// An interaction outside gesture dispatch (not used by the standard
		// apps, but kept total): synthesize a gesture-less entry.
		idx = len(d.truths)
		d.truths = append(d.truths, GroundTruth{Index: idx, InputTime: d.Eng.Now(), DispatchTime: d.Eng.Now()})
	}
	gt := &d.truths[idx]
	gt.Label = label
	gt.Class = class
	return idx
}

// InteractionFinished implements apps.Host: the ground-truth "input
// serviced" instant. The ground-truth log owns finish idempotence — Seal
// empties it, so a forked run's interaction chains finish again in the new
// timeline.
func (d *Device) InteractionFinished(id int) bool {
	if id < 0 || id >= len(d.truths) {
		return false
	}
	gt := &d.truths[id]
	if gt.Complete {
		return false
	}
	gt.Complete = true
	gt.CompleteTime = d.Eng.Now()
	gt.MaskRects = d.foreground.VolatileRects()
	if d.OnInteraction != nil {
		d.OnInteraction(*gt)
	}
	return true
}

// ---- input pipeline ----

// Subscribe registers an input-event observer (the getevent recorder).
func (d *Device) Subscribe(fn func(evdev.Event)) {
	d.subscribers = append(d.subscribers, fn)
}

// Inject delivers one evdev event to the device at the current virtual time,
// as the kernel input layer would. The interactive governor's input boost
// fires here, before any UI work happens.
func (d *Device) Inject(ev evdev.Event) {
	ev.Time = d.Eng.Now()
	for _, fn := range d.subscribers {
		fn(ev)
	}
	if !ev.IsSyn() {
		for _, gov := range d.Govs {
			if gov != nil {
				gov.OnInput(ev.Time)
			}
		}
	}
	d.assemble(ev)
}

// assemble reassembles gestures from the event stream (mirror of
// evdev.Classify, but online).
func (d *Device) assemble(ev evdev.Event) {
	if ev.Type != evdev.EVAbs {
		return
	}
	switch ev.Code {
	case evdev.AbsMTTrackingID:
		if ev.Value == evdev.TrackingRelease {
			if g := d.curGesture; g != nil {
				g.Duration = ev.Time.Sub(g.Start)
				d.curGesture = nil
				d.dispatch(*g)
			}
		} else {
			d.curGesture = &evdev.Gesture{Start: ev.Time}
			d.gotX, d.gotY = false, false
		}
	case evdev.AbsMTPositionX:
		if d.curGesture == nil {
			return
		}
		d.curGesture.X1 = int(ev.Value)
		if !d.gotX {
			d.curGesture.X0 = int(ev.Value)
			d.gotX = true
		}
	case evdev.AbsMTPositionY:
		if d.curGesture == nil {
			return
		}
		d.curGesture.Y1 = int(ev.Value)
		if !d.gotY {
			d.curGesture.Y0 = int(ev.Value)
			d.gotY = true
		}
	}
}

// dispatch routes a completed gesture to the nav bar or the foreground app
// and opens its ground-truth record.
func (d *Device) dispatch(g evdev.Gesture) {
	dx, dy := g.X1-g.X0, g.Y1-g.Y0
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	kind := evdev.Tap
	if dx > 24 || dy > 24 {
		kind = evdev.Swipe
	}

	idx := len(d.truths)
	d.truths = append(d.truths, GroundTruth{
		Index:        idx,
		Kind:         kind,
		InputTime:    g.Start,
		DispatchTime: d.Eng.Now(),
	})
	d.dispatchIdx = idx

	var handled bool
	switch {
	case kind == evdev.Tap && screen.HomeButtonRect.Contains(g.X0, g.Y0):
		handled = d.goHome()
	case kind == evdev.Tap && screen.BackButtonRect.Contains(g.X0, g.Y0):
		handled = d.foreground.HandleBack()
	case kind == evdev.Tap:
		handled = d.foreground.HandleTap(g.X0, g.Y0)
	default:
		handled = d.foreground.HandleSwipe(g.X0, g.Y0, g.X1, g.Y1)
	}
	d.dispatchIdx = -1

	gt := &d.truths[idx]
	if !handled && gt.Label == "" {
		gt.Spurious = true
		gt.Complete = true
		gt.CompleteTime = d.Eng.Now()
		if d.OnInteraction != nil {
			d.OnInteraction(*gt)
		}
		return
	}
	if handled && gt.Label == "" {
		// Handled without starting work: visible immediately.
		gt.Label = "instant"
		gt.Complete = true
		gt.CompleteTime = d.Eng.Now()
		gt.MaskRects = d.foreground.VolatileRects()
		if d.OnInteraction != nil {
			d.OnInteraction(*gt)
		}
	}
}

func (d *Device) goHome() bool {
	if d.foreground == d.launcher {
		return false
	}
	ix := apps.BeginInteraction(d, "nav.home", core.SimpleFrequent)
	d.SpawnWork("nav.home", apps.CostTinyUI, func() {
		d.foreground = d.launcher
		d.markDirty()
		d.launcher.Enter(ix)
	})
	return true
}

// ---- rendering and capture ----

// Frame renders (if needed) and returns the current screen frame; this is
// the HDMI output the video recorder captures. The capture path is
// zero-copy for unchanged content: a dirty flag alone does not allocate —
// the rendered framebuffer is compared against the previously captured
// frame and only an actual pixel change clones (from the profile's frame
// pool when one is set). Returning the identical *Frame for identical
// content also lets the video's run-length encoder extend runs on pointer
// identity without ever comparing pixels. Nothing clears the framebuffer
// first: Render paints all of screen.ContentRect, and the status and nav
// bars paint every row above and below it.
func (d *Device) Frame() *video.Frame {
	if !d.dirty && d.cached != nil {
		return d.cached
	}
	now := d.Eng.Now()
	d.fb.SetNow(now)
	d.foreground.Render(&d.fb)
	screen.DrawStatusBar(&d.fb, now)
	screen.DrawNavBar(&d.fb)
	d.dirty = false
	if d.cached != nil && d.cached.EqualPix(d.fb.Pix[:]) {
		return d.cached
	}
	if d.prof.FramePool != nil {
		d.cached = d.prof.FramePool.Capture(d.fb.Pix[:])
	} else {
		d.cached = video.NewFrame(d.fb.Clone())
	}
	return d.cached
}

// String summarises device state.
func (d *Device) String() string {
	return fmt.Sprintf("device.Device{fg=%s, %s}", d.foreground.Name(), d.SoC)
}
