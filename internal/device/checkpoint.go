package device

import (
	"repro/internal/apps"
	"repro/internal/evdev"
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/soc"
	"repro/internal/trace"
)

// Checkpoint is a deep snapshot of a device's complete simulation state:
// engine clock and event queue, SoC (clusters, run queues, task pool, idle
// ladders), RNG stream position, app and service state machines, network
// proxy cursors, ground truth, governor state, traces and thermal state.
//
// A checkpoint is bound to the device it was taken from: the restored engine
// queue holds the original closures, which capture that device's apps,
// services and tick functions. Restoring into a different device is
// undefined. All buffers are reused across Checkpoint calls, so a
// steady-state checkpoint/restore cycle allocates nothing once they reach
// the run's high-water mark.
//
// Two kinds of checkpoint exist, distinguished by when they are taken:
//
//   - Boot checkpoints (taken on a booted-but-unsealed device, the fork
//     point of replay sessions): Restore rewinds to the shared warm prefix;
//     the caller then Seals with the run's seed and governors. This is the
//     cheap, always-safe kind — at that instant the engine queue holds only
//     background-service start events whose closures capture stable service
//     objects.
//   - Mid-run checkpoints (taken on a sealed device): Restore additionally
//     rewinds governors, traces and thermal state, and the run resumes
//     without re-Sealing. These must be taken at instants quiescent with
//     respect to interactions — in-flight interaction chains live in
//     closure-captured locals that a snapshot cannot reach (see
//     docs/performance.md).
type Checkpoint struct {
	eng  sim.EngineSnap
	soc  soc.Snap
	rand uint64

	dirty bool
	anims []string

	haveGesture bool
	gesture     evdev.Gesture
	gotX, gotY  bool
	nSubs       int

	truths      []GroundTruth
	dispatchIdx int
	foreground  string

	// state serialises app, launcher, stateful-service, network-proxy and
	// (when sealed) governor state, in a fixed order.
	state snap.Buf

	vsyncOn  bool
	thermalN int

	// sealed marks a mid-run checkpoint of a sealed device; the fields below
	// it are only populated (and only restored) when it is set.
	sealed    bool
	traces    []*trace.ClusterTraces
	busy      trace.BusyCurve
	zoneTemps []float64
	capIdxs   []int
	prevBusy  [][]sim.Duration
}

// Checkpoint captures the device's complete state into cp (allocating one
// when nil) and returns it. Mid-run checkpoints must be quiescent with
// respect to interactions; see the type comment.
func (d *Device) Checkpoint(cp *Checkpoint) *Checkpoint {
	if cp == nil {
		cp = &Checkpoint{}
	}
	d.Eng.Snapshot(&cp.eng)
	d.SoC.Snapshot(&cp.soc)
	cp.rand = d.rand.State()

	cp.dirty = d.dirty
	cp.anims = cp.anims[:0]
	for k := range d.anims {
		cp.anims = append(cp.anims, k)
	}

	cp.haveGesture = d.curGesture != nil
	if cp.haveGesture {
		cp.gesture = *d.curGesture
	}
	cp.gotX, cp.gotY = d.gotX, d.gotY
	cp.nSubs = len(d.subscribers)

	cp.truths = append(cp.truths[:0], d.truths...)
	cp.dispatchIdx = d.dispatchIdx
	cp.foreground = ""
	if d.foreground != nil {
		cp.foreground = d.foreground.Name()
	}

	cp.state.Reset()
	for _, name := range d.appOrder {
		d.appsByName[name].SaveState(&cp.state)
	}
	d.launcher.SaveState(&cp.state)
	for _, s := range d.svcs {
		if ss, ok := s.(apps.StatefulService); ok {
			ss.SaveState(&cp.state)
		}
	}
	if d.prof.NetProxy != nil {
		d.prof.NetProxy.SaveState(&cp.state)
	}

	cp.vsyncOn = d.vsyncOn
	cp.thermalN = d.thermalN

	cp.sealed = len(d.Govs) > 0
	if !cp.sealed {
		return cp
	}
	for _, gov := range d.Govs {
		if c, ok := gov.(governor.Checkpointable); ok {
			c.SaveState(&cp.state)
		}
	}
	if cap(cp.traces) < len(d.ClusterTraces) {
		grown := make([]*trace.ClusterTraces, len(d.ClusterTraces))
		copy(grown, cp.traces[:cap(cp.traces)])
		cp.traces = grown
	}
	cp.traces = cp.traces[:len(d.ClusterTraces)]
	for i, ct := range d.ClusterTraces {
		if cp.traces[i] == nil {
			cp.traces[i] = &trace.ClusterTraces{}
		}
		cp.traces[i].CopyFrom(ct)
	}
	cp.busy.CopyFrom(d.BusyCurve)
	cp.zoneTemps = cp.zoneTemps[:0]
	cp.capIdxs = cp.capIdxs[:0]
	for i, z := range d.Zones {
		cp.zoneTemps = append(cp.zoneTemps, z.TempC())
		cp.capIdxs = append(cp.capIdxs, d.throttlers[i].CapIndex())
	}
	if cap(cp.prevBusy) < len(d.prevBusy) {
		grown := make([][]sim.Duration, len(d.prevBusy))
		copy(grown, cp.prevBusy[:cap(cp.prevBusy)])
		cp.prevBusy = grown
	}
	cp.prevBusy = cp.prevBusy[:len(d.prevBusy)]
	for i, pb := range d.prevBusy {
		cp.prevBusy[i] = append(cp.prevBusy[i][:0], pb...)
	}
	return cp
}

// Restore rewinds the device to the state captured by Checkpoint. After
// restoring a boot checkpoint the device is unsealed; call Seal to start the
// forked run. After restoring a mid-run checkpoint the run resumes directly.
// The screen is re-rendered from app state on the next Frame call, which
// reproduces the checkpointed content exactly.
func (d *Device) Restore(cp *Checkpoint) {
	d.Eng.Restore(&cp.eng)
	d.SoC.Restore(&cp.soc)
	d.rand.SetState(cp.rand)

	d.dirty = cp.dirty
	d.cached = nil
	for k := range d.anims {
		delete(d.anims, k)
	}
	for _, k := range cp.anims {
		d.anims[k] = true
	}

	if cp.haveGesture {
		d.gestureBuf = cp.gesture
		d.curGesture = &d.gestureBuf
	} else {
		d.curGesture = nil
	}
	d.gotX, d.gotY = cp.gotX, cp.gotY
	d.subscribers = d.subscribers[:cp.nSubs]

	d.truths = append(d.truths[:0], cp.truths...)
	d.dispatchIdx = cp.dispatchIdx
	d.foreground = d.appsByName[cp.foreground]

	cp.state.Rewind()
	for _, name := range d.appOrder {
		d.appsByName[name].LoadState(&cp.state)
	}
	d.launcher.LoadState(&cp.state)
	for _, s := range d.svcs {
		if ss, ok := s.(apps.StatefulService); ok {
			ss.LoadState(&cp.state)
		}
	}
	if d.prof.NetProxy != nil {
		d.prof.NetProxy.LoadState(&cp.state)
	}

	d.vsyncOn = cp.vsyncOn
	d.thermalN = cp.thermalN

	if !cp.sealed {
		// Back to the boot instant: no governors, no traces. Thermal zone
		// objects (if an earlier Seal created them) stay allocated; the next
		// sealThermal resets them in place.
		d.Govs = d.Govs[:0]
		d.Gov = nil
		d.ClusterTraces = d.ClusterTraces[:0]
		d.FreqTrace = nil
		d.BusyCurve = nil
		d.OnInteraction = nil
		d.OnDirty = nil
		return
	}
	for _, gov := range d.Govs {
		if c, ok := gov.(governor.Checkpointable); ok {
			c.LoadState(&cp.state)
		}
	}
	for i, ct := range d.ClusterTraces {
		ct.CopyFrom(cp.traces[i])
	}
	d.BusyCurve.CopyFrom(&cp.busy)
	for i := range d.Zones {
		d.Zones[i].SetTempC(cp.zoneTemps[i])
		d.throttlers[i].SetCapIndex(cp.capIdxs[i])
		copy(d.prevBusy[i], cp.prevBusy[i])
	}
}

// CheckpointPool recycles Checkpoint objects (and, transitively, every
// buffer inside them). Sweeps that fork many runs from one prefix keep a
// pool per worker so steady-state forking allocates nothing.
type CheckpointPool struct {
	free []*Checkpoint
}

// Get returns a recycled checkpoint, or a fresh one if the pool is empty.
func (p *CheckpointPool) Get() *Checkpoint {
	if n := len(p.free); n > 0 {
		cp := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return cp
	}
	return &Checkpoint{}
}

// Put returns a checkpoint to the pool for reuse.
func (p *CheckpointPool) Put(cp *Checkpoint) {
	if cp != nil {
		p.free = append(p.free, cp)
	}
}

// FaultCorrupt deliberately wrecks the checkpoint's serialised app/service
// state so the next Restore fails loudly: the typed snapshot reads run off
// the truncated buffer and panic deterministically. This is the
// fault-injection stand-in for "a warm checkpoint was silently damaged" —
// the failure the replay pool's panic recovery and session quarantine must
// contain and heal (evict the poisoned session, reboot cold on next use).
// Fault-injection suites only.
func (cp *Checkpoint) FaultCorrupt() { cp.state.FaultTruncate() }
