package device

import (
	"repro/internal/apps"
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/soc"
)

// Checkpoint is a snapshot of a booted, unsealed device — the fork point of
// replay sessions, where every run on the profile still shares its history.
// It holds what a run mutates and Seal does not reset: the engine clock and
// event queue, the SoC's clocks, busy accounting and idle ladders, and the
// app, launcher, stateful-service and network-proxy state. Everything else a
// run mutates (RNG, dirty flag, animations, gesture decoder, subscribers,
// ground truth, foreground, vsync and thermal tick state, governors and
// traces) is reset by Seal, which ends every Restore.
//
// A checkpoint is bound to the device it was taken from: the restored engine
// queue holds the original closures, which capture that device's apps,
// services and tick functions. Restoring into a different device is
// undefined.
type Checkpoint struct {
	eng sim.EngineSnap
	soc soc.Snap
	// state serialises app, launcher, stateful-service and network-proxy
	// state, in a fixed order.
	state snap.Buf
}

// Checkpoint captures the state of a booted device that has not been
// sealed. It panics on a sealed device: a run's governors, traces and
// in-flight interactions are not in a checkpoint.
func (d *Device) Checkpoint() *Checkpoint {
	if len(d.Govs) > 0 {
		panic("device: Checkpoint of a sealed device; take it between Boot and Seal")
	}
	cp := &Checkpoint{}
	d.Eng.Snapshot(&cp.eng)
	d.SoC.Snapshot(&cp.soc)
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
	return cp
}

// Restore rewinds the device to the boot instant captured by cp and Seals
// it for a run with the given seed and governors. The result is
// indistinguishable from a cold NewMulti with the same arguments. The
// screen is re-rendered from app state on the next Frame call.
func (d *Device) Restore(cp *Checkpoint, seed uint64, govs []governor.Governor) {
	d.Eng.Restore(&cp.eng)
	d.SoC.Restore(&cp.soc)
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
	d.Seal(seed, govs)
}

// FaultCorrupt deliberately wrecks the checkpoint's serialised app/service
// state so the next Restore fails loudly: the typed snapshot reads run off
// the truncated buffer and panic deterministically. This is the
// fault-injection stand-in for "a warm checkpoint was silently damaged" —
// the failure the replay pool's panic recovery and session quarantine must
// contain and heal (evict the poisoned session, reboot cold on next use).
// Fault-injection suites only.
func (cp *Checkpoint) FaultCorrupt() { cp.state.FaultTruncate() }
