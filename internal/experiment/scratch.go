package experiment

import (
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/video"
	"repro/internal/workload"
)

// replayScratch is the per-worker reusable state of a sweep. Every worker
// goroutine owns exactly one at a time, so nothing in it needs locking: the
// frame pool recycles captured frame storage from one repetition into the
// next, which is the bulk of a replay's allocations once the engine and
// callback paths stopped allocating; the busy slots recycle the aggregate
// busy curve and the per-cluster busy grids of every run, since runs keep
// busy summaries rather than curves, and the trace slot the whole
// per-cluster traces of the runs that keep none (the oracle-candidate
// replays); and the session registry owns the warmed replay sessions, so
// the boot prefix is paid once per (worker, workload, spec) for the
// scratch's whole lifetime — which, on a long-lived Pool, spans every sweep
// the pool ever executes, not just one.
type replayScratch struct {
	frames   *video.FramePool
	busy     *trace.BusyCurve
	grids    [][]sim.Duration
	traces   []*trace.ClusterTraces
	sessions *workload.SessionRegistry
	// activeKey is the session key of the warm session the current job is
	// replaying on, "" when the job has not touched a session. The pool's
	// panic recovery uses it to quarantine exactly the possibly-poisoned
	// session and nothing else.
	activeKey string
}

func newReplayScratch() *replayScratch {
	return &replayScratch{
		frames:   video.NewFramePool(),
		sessions: workload.NewSessionRegistry(),
	}
}

// session returns the worker's warm replay session for the workload,
// booting one on first use. Sessions replay the seed-independent warm prefix
// (engine, silicon, app install, service start) exactly once per worker and
// fork every subsequent run off the boot checkpoint — the sweep's dominant
// fixed cost paid once instead of per run. The registry keys by
// workload.SessionKey (workload + spec + idle marker), so one scratch can
// serve many sweeps over different workloads and specs without cross-talk;
// the oracle's placement-pinned sub-specs carry distinct spec names
// ("<spec>-<cluster>-only") and land in their own slots.
func (s *replayScratch) session(w *workload.Workload) *workload.ReplaySession {
	s.activeKey = workload.SessionKey(w)
	return s.sessions.Session(w)
}

// quarantineActive evicts the warm session the current job was using, if
// any — the containment step after a recovered panic. A job that panicked
// before acquiring a session quarantines nothing.
func (s *replayScratch) quarantineActive() {
	if s.activeKey != "" {
		s.sessions.Evict(s.activeKey)
		s.activeKey = ""
	}
}

// lend hands the worker's recycled storage to the device's next Seal: the
// aggregate busy curve, plus the whole per-cluster traces when the run keeps
// none of them (wholeTraces) or else just their busy grids. Storage the
// worker has not recycled yet is allocated fresh by Seal and comes back
// through reclaim.
func (s *replayScratch) lend(d *device.Device, wholeTraces bool) {
	d.SetBusyScratch(s.busy)
	s.busy = nil
	if wholeTraces {
		d.SetTraceScratch(s.traces)
		s.traces = nil
		return
	}
	d.SetGridScratch(s.grids)
	s.grids = s.grids[:0]
}

// reclaim takes back the storage lend covers from a replay whose busy
// curves have been summarised, clearing it from the artefacts: the
// aggregate curve, and the per-cluster traces (wholeTraces) or else their
// busy grids, leaving each trace's Busy empty. None of it may be read
// through the artefacts afterwards.
func (s *replayScratch) reclaim(art *workload.RunArtifacts, wholeTraces bool) {
	s.busy, art.BusyCurve = art.BusyCurve, nil
	if wholeTraces {
		// FreqTrace aliases the first cluster's trace.
		s.traces, art.Clusters, art.FreqTrace = art.Clusters, nil, nil
		return
	}
	for _, ct := range art.Clusters {
		s.grids = append(s.grids, ct.Busy.Cum)
		ct.Busy.Cum = nil
	}
}

// pooledWorkload returns the workload with the worker's frame pool installed
// in its device profile (a value copy; the shared workload is untouched).
func (s *replayScratch) pooledWorkload(w *workload.Workload) *workload.Workload {
	wc := *w
	wc.Profile.FramePool = s.frames
	return &wc
}

// release hands a matched video's frames back to the worker pool. The video
// must not be used afterwards.
func (s *replayScratch) release(v *video.Video) { s.frames.Release(v) }
