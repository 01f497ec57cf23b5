package workload

import (
	"repro/internal/device"
	"repro/internal/governor"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/video"
)

// ReplaySession amortises the seed-independent warm prefix of a replay —
// engine construction, silicon bring-up, app install, background-service
// start — across every run of one (workload, recording) pair. The session
// boots the device once, checkpoints it at the fork point (just before
// governors attach), and each Replay call restores that checkpoint and
// seals the device for its concrete configuration. A forked replay is
// bit-for-bit identical to a cold ReplayMulti with the same arguments; the
// checkpoint equivalence tests pin that guarantee.
//
// A session is not safe for concurrent use: sweeps give each worker its own.
type ReplaySession struct {
	w   *Workload
	rec *Recording
	// Eng and Dev are the session's engine and device, rewound by every
	// Replay. Exposed for tests and tooling; treat as read-only between
	// Replay calls.
	Eng *sim.Engine
	Dev *device.Device

	cp        *device.Checkpoint
	agent     *record.Agent
	agentRand *sim.Rand
}

// NewReplaySession boots a device for the workload's profile and checkpoints
// it at the fork point. rec becomes the default recording for Replay; it may
// be nil when every run goes through ReplayRecording instead.
func NewReplaySession(w *Workload, rec *Recording) *ReplaySession {
	eng := sim.NewEngine()
	dev := device.Boot(eng, w.Profile)
	s := &ReplaySession{
		w:         w,
		rec:       rec,
		Eng:       eng,
		Dev:       dev,
		agent:     record.NewAgent(),
		agentRand: sim.NewRand(1),
	}
	s.cp = dev.Checkpoint(nil)
	return s
}

// Workload returns the session's workload.
func (s *ReplaySession) Workload() *Workload { return s.w }

// CorruptCheckpoint deliberately damages the session's fork-point checkpoint
// so the next ReplayRecording panics inside Restore — the fault-injection
// stand-in for warm state silently rotting under a long-lived session. The
// panic is deterministic, which lets the chaos suites pin the full recovery
// path (recover → quarantine → cold reboot) bit-for-bit. Fault-injection
// suites only.
func (s *ReplaySession) CorruptCheckpoint() { s.cp.FaultCorrupt() }

// Replay forks one run off the session's boot checkpoint against the
// session's own recording. See ReplayRecording.
func (s *ReplaySession) Replay(govs []governor.Governor, configName string, seed uint64, capture bool) *RunArtifacts {
	return s.ReplayRecording(s.rec, govs, configName, seed, capture)
}

// ReplayRecording forks one run off the session's boot checkpoint: restore,
// seal with the run's seed and governors, replay the recorded input trace and
// collect artefacts. The returned artefacts are self-contained — ground truth
// and busy histograms are copied out of the device, and each seal creates
// fresh traces — so they stay valid across later Replay calls on the same
// session.
//
// The checkpoint depends only on the workload's device profile, never on the
// input trace, so one warm session serves any recording of its workload:
// long-running harnesses reuse a session across jobs whose recordings differ
// (different master seeds) without re-paying the boot prefix.
func (s *ReplaySession) ReplayRecording(rec *Recording, govs []governor.Governor, configName string, seed uint64, capture bool) *RunArtifacts {
	s.Dev.Restore(s.cp)
	s.Dev.Seal(seed, govs)
	window := rec.RunWindow()
	s.Dev.ReserveTraces(window)
	s.agentRand.Reseed(seed ^ 0x5eed)
	s.agent.Replay(s.Dev, rec.Events, s.agentRand)

	var vrec *video.Recorder
	if capture {
		// Demand-driven capture: the recorder sleeps while the screen is
		// clean and nothing animates, and the device wakes it on the first
		// invalidation, so an idle stretch costs zero capture events instead
		// of 30 per second.
		// With a frame pool the video reuses the last released one's runs.
		vrec = s.Dev.FramePool().NewRecorder(s.Eng, video.FPS, s.Dev.Frame)
		vrec.BindDirty(s.Dev.Changing)
		s.Dev.OnDirty = vrec.Wake
		vrec.Start()
	}
	s.Eng.RunUntil(sim.Time(window))
	s.Dev.FinishTraces(window)
	s.Dev.SnapshotIdle()

	// BusyByOPP/BusyByCluster copy out of the cluster counters and each seal
	// creates fresh traces, but the ground-truth log is rewound in place by
	// the next Restore — copy it so artefacts outlive the session's reuse.
	byCluster := s.Dev.SoC.BusyByCluster()
	art := &RunArtifacts{
		Workload:      rec.Workload,
		Config:        configName,
		Truths:        append([]device.GroundTruth(nil), s.Dev.GroundTruths()...),
		FreqTrace:     s.Dev.FreqTrace,
		BusyCurve:     s.Dev.BusyCurve,
		BusyByOPP:     byCluster[0],
		Clusters:      s.Dev.ClusterTraces,
		BusyByCluster: byCluster,
		Migrations:    s.Dev.SoC.Migrations(),
		Duration:      rec.Duration,
		Window:        window,
	}
	if vrec != nil {
		vrec.Stop()
		art.Video = vrec.Video()
	}
	return art
}
