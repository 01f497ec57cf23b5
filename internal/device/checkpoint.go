package device

import (
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Checkpoint is a snapshot of a booted, unsealed device — the fork point of
// replay sessions, where every run on the profile still shares its history.
// It holds what Seal cannot rebuild: the engine clock and event queue, and
// the SoC's clocks, busy accounting and idle ladders. Everything else a run
// mutates is reset by Seal, which ends every Restore: apps and the launcher
// (their Init), the music decoder's play flag, the network proxy's replay
// cursors, and the RNG, dirty flag, animations, gesture decoder,
// subscribers, ground truth, foreground, vsync and thermal tick state,
// governors and traces.
//
// A checkpoint is bound to the device it was taken from: the restored engine
// queue holds the original closures, which capture that device's apps,
// services and tick functions. Restoring into a different device is
// undefined.
type Checkpoint struct {
	eng sim.EngineSnap
	soc soc.Snap
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
	return cp
}

// Restore rewinds the device to the boot instant captured by cp and Seals
// it for a run with the given seed and governors. The result is
// indistinguishable from a cold NewMulti with the same arguments. The
// screen is re-rendered from app state on the next Frame call.
func (d *Device) Restore(cp *Checkpoint, seed uint64, govs []governor.Governor) {
	d.Eng.Restore(&cp.eng)
	d.SoC.Restore(&cp.soc)
	d.Seal(seed, govs)
}

// FaultCorrupt deliberately wrecks the checkpoint's SoC snapshot so the next
// Restore fails loudly: its cluster table is truncated and the restore
// panics deterministically. This is the fault-injection stand-in for "a warm
// checkpoint was silently damaged" — the failure the replay pool's panic
// recovery and session quarantine must contain and heal (evict the poisoned
// session, reboot cold on next use). Fault-injection suites only.
func (cp *Checkpoint) FaultCorrupt() { cp.soc.FaultTruncate() }
