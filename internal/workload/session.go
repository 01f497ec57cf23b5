package workload

import (
	"repro/internal/device"
	"repro/internal/governor"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/video"
)

// ReplaySession amortises what every run of one workload shares — engine,
// silicon, installed apps, background services, thermal zones, the agent
// and the buffers they grow — across its runs. The session boots the device
// once, and each Replay seals it for its concrete configuration, which
// rewinds it to the boot instant; so a forked replay takes the same path as
// a cold ReplayMulti with the same arguments, and is bit-for-bit identical
// to it, as the fork equivalence tests pin.
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

	agent     *record.Agent
	agentRand *sim.Rand
}

// NewReplaySession boots a device for the workload's profile. rec becomes
// the default recording for Replay; it may be nil when every run goes
// through ReplayRecording instead.
func NewReplaySession(w *Workload, rec *Recording) *ReplaySession {
	eng := sim.NewEngine()
	return &ReplaySession{
		w:         w,
		rec:       rec,
		Eng:       eng,
		Dev:       device.Boot(eng, w.Profile),
		agent:     record.NewAgent(),
		agentRand: sim.NewRand(1),
	}
}

// Workload returns the session's workload.
func (s *ReplaySession) Workload() *Workload { return s.w }

// CorruptSession deliberately damages the session's warm device — it loses
// its engine — so the next ReplayRecording panics inside Seal: the
// fault-injection stand-in for warm state silently rotting under a
// long-lived session. The panic is deterministic, which lets the chaos
// suites pin the full recovery path (recover → quarantine → cold reboot)
// bit-for-bit. Fault-injection suites only.
func (s *ReplaySession) CorruptSession() { s.Dev.Eng = nil }

// Replay forks one run off the session's warm device against the session's
// own recording. See ReplayRecording.
func (s *ReplaySession) Replay(govs []governor.Governor, configName string, seed uint64, capture bool) *RunArtifacts {
	return s.ReplayRecording(s.rec, govs, configName, seed, capture)
}

// ReplayRecording forks one run off the session's warm device: seal it with
// the run's seed and governors, replay the recorded input trace and collect
// artefacts. The returned artefacts are self-contained — ground truth and
// busy histograms are copied out of the device, and each seal creates fresh
// traces — so they stay valid across later Replay calls on the same
// session.
//
// The booted device depends only on the workload's device profile, never on
// the input trace, so one warm session serves any recording of its workload:
// long-running harnesses reuse a session across jobs whose recordings differ
// (different master seeds) without rebuilding the device.
func (s *ReplaySession) ReplayRecording(rec *Recording, govs []governor.Governor, configName string, seed uint64, capture bool) *RunArtifacts {
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
	// the next Seal — copy it so artefacts outlive the session's reuse.
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
