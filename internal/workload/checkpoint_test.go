package workload

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/governor"
	"repro/internal/netproxy"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/video"
)

// coldReplay mirrors ReplaySession.Replay without the checkpoint machinery:
// a cold NewMulti boot followed by the exact run sequence a forked replay
// performs. It is the reference the fork≡cold tests compare against — any
// state the snapshot layer fails to capture or restore shows up as a trace,
// truth or video divergence against this path.
func coldReplay(w *Workload, rec *Recording, govs []governor.Governor, configName string, seed uint64, capture bool) *RunArtifacts {
	eng := sim.NewEngine()
	dev := device.NewMulti(eng, seed, govs, w.Profile)
	window := rec.RunWindow()
	dev.ReserveTraces(window)
	agent := record.NewAgent()
	agent.Replay(dev, rec.Events, sim.NewRand(seed^0x5eed))

	var vrec *video.Recorder
	if capture {
		vrec = video.NewRecorder(eng, video.FPS, dev.Frame)
		vrec.BindDirty(dev.Changing)
		dev.OnDirty = vrec.Wake
		vrec.Start()
	}
	eng.RunUntil(sim.Time(window))
	dev.FinishTraces(window)
	dev.SnapshotIdle()

	byCluster := dev.SoC.BusyByCluster()
	art := &RunArtifacts{
		Workload:      rec.Workload,
		Config:        configName,
		Truths:        append([]device.GroundTruth(nil), dev.GroundTruths()...),
		FreqTrace:     dev.FreqTrace,
		BusyCurve:     dev.BusyCurve,
		BusyByOPP:     byCluster[0],
		Clusters:      dev.ClusterTraces,
		BusyByCluster: byCluster,
		Migrations:    dev.SoC.Migrations(),
		Duration:      rec.Duration,
		Window:        window,
	}
	if vrec != nil {
		vrec.Stop()
		art.Video = vrec.Video()
	}
	return art
}

// fullHash extends replayHash with the idle-ladder and thermal traces, so
// equivalence checks on idle-enabled and thermal specs cover residency
// accounting, zone temperatures and throttle cap changes too.
func fullHash(art *RunArtifacts) string {
	h := replayHash(art)
	th := sha256.New()
	for ci, ct := range art.Clusters {
		for _, p := range ct.Temp.Points {
			fmt.Fprintf(th, "%d|%d:%x;", ci, p.At, math.Float64bits(p.TempC))
		}
		for _, e := range ct.Throttle.Events {
			fmt.Fprintf(th, "%d|%d:%d:%t;", ci, e.At, e.CapIndex, e.Throttled)
		}
	}
	h += fmt.Sprintf("|t%x", th.Sum(nil)[:8])
	for ci, ct := range art.Clusters {
		if ct.Idle == nil || len(ct.Idle.States) == 0 {
			continue
		}
		h += fmt.Sprintf("|i%d", ci)
		for k, st := range ct.Idle.States {
			h += fmt.Sprintf(":%s=%d", st, ct.Idle.Residency[k])
		}
		h += fmt.Sprintf(":w%d:m%d:s%d:a%d", ct.Idle.Wakes, ct.Idle.Mispredicts,
			int64(ct.Idle.StallTime), int64(ct.Idle.ActiveTime))
	}
	return h
}

// requireSameRun asserts bit-for-bit equivalence of two replays: traces,
// ground truth, and (when captured) the full video run-length encoding.
func requireSameRun(t *testing.T, label string, cold, fork *RunArtifacts) {
	t.Helper()
	if ch, fh := fullHash(cold), fullHash(fork); ch != fh {
		t.Fatalf("%s: trace hash diverged: cold %s vs fork %s", label, ch, fh)
	}
	if len(cold.Truths) != len(fork.Truths) {
		t.Fatalf("%s: %d cold truths vs %d fork truths", label, len(cold.Truths), len(fork.Truths))
	}
	for i := range cold.Truths {
		if fmt.Sprintf("%+v", cold.Truths[i]) != fmt.Sprintf("%+v", fork.Truths[i]) {
			t.Fatalf("%s: ground truth %d diverged:\ncold %+v\nfork %+v", label, i, cold.Truths[i], fork.Truths[i])
		}
	}
	if (cold.Video == nil) != (fork.Video == nil) {
		t.Fatalf("%s: capture mismatch", label)
	}
	if cold.Video == nil {
		return
	}
	cr, fr := cold.Video.Runs(), fork.Video.Runs()
	if cold.Video.Len() != fork.Video.Len() || len(cr) != len(fr) {
		t.Fatalf("%s: video shape diverged: cold %d frames/%d runs, fork %d frames/%d runs",
			label, cold.Video.Len(), len(cr), fork.Video.Len(), len(fr))
	}
	for i := range cr {
		if cr[i].Start != fr[i].Start || cr[i].Count != fr[i].Count || !video.Equal(cr[i].Frame, fr[i].Frame) {
			t.Fatalf("%s: video run %d diverged (cold start=%d count=%d, fork start=%d count=%d, frames equal %t)",
				label, i, cr[i].Start, cr[i].Count, fr[i].Start, fr[i].Count, video.Equal(cr[i].Frame, fr[i].Frame))
		}
	}
}

// TestForkEqualsColdRun is the tentpole correctness gate of checkpoint/fork
// replay: on both platform specs, with the idle ladder off and on, and on a
// sustained thermal run whose throttler binds, a run forked from a session's
// boot checkpoint must be bit-for-bit identical — traces, busy histograms,
// idle residency, temperatures, throttle caps, ground truth and captured
// video — to a cold boot with the same seed and governors. The session is
// "dirtied" with a different-seed fork first, so the test also proves that
// one run leaves no residue in the next (the property that lets sweeps fork
// hundreds of runs off one prefix, sustained sweeps included).
func TestForkEqualsColdRun(t *testing.T) {
	quickstartOn := func(spec soc.Spec) func(*testing.T) *Workload {
		return func(*testing.T) *Workload {
			w := Quickstart()
			w.Profile.SoC = spec
			return w
		}
	}
	ondemand := func() governor.Governor { return governor.NewOndemand() }
	rows := []struct {
		name   string
		w      func(*testing.T) *Workload
		repeat int
		gov    func() governor.Governor
	}{
		{"dragonboard", func(*testing.T) *Workload { return Quickstart() }, 1, ondemand},
		{"biglittle", quickstartOn(soc.BigLittle44()), 1, ondemand},
		{"biglittle-idle", quickstartOn(soc.WithDefaultIdle(soc.BigLittle44())), 1, ondemand},
		// The sustained sweep's shape: two back-to-back passes of the
		// export marathon with a binding trip, so the checkpoint must
		// carry zone temperatures and throttle caps across forks.
		{"thermal", func(t *testing.T) *Workload {
			w := ExportMarathon()
			w.Profile.SoC = soc.BigLittle44()
			w.Profile.Thermal = thermal.PhoneConfig(2, 30, 5)
			model, err := w.Profile.SoC.Calibrate(0)
			if err != nil {
				t.Fatal(err)
			}
			w.Profile.ThermalPower = model
			return w
		}, 2, func() governor.Governor { return governor.NewInteractive() }},
		// A network proxy recorded with the trace and replayed: its cursors
		// and miss count live outside the device, so the checkpoint must
		// carry them, or each fork resumes where the last one left off.
		{"netproxy", func(*testing.T) *Workload {
			w := Quickstart()
			w.Profile.NetProxy = netproxy.New(netproxy.Record)
			return w
		}, 1, func() governor.Governor { return governor.NewInteractive() }},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			w := row.w(t)
			rec, _, err := w.Record(1)
			if err != nil {
				t.Fatal(err)
			}
			rec = rec.Repeat(row.repeat)
			// A proxy recorded along with the trace serves each device, the
			// cold one and the session's, as its own replay copy.
			replayed := func() *Workload { return w }
			if recorded := w.Profile.NetProxy; recorded != nil {
				if recorded.AccessCount() == 0 {
					t.Fatal("proxy recorded no accesses; it would not exercise proxy state")
				}
				replayed = func() *Workload {
					wc := *w
					wc.Profile.NetProxy = recorded.ReplayCopy()
					return &wc
				}
			}
			mkGovs := func() []governor.Governor {
				govs := make([]governor.Governor, len(w.Profile.SoCSpec().Clusters))
				for i := range govs {
					govs[i] = row.gov()
				}
				return govs
			}

			name := row.gov().Name()
			cold := coldReplay(replayed(), rec, mkGovs(), name, 42, true)
			if w.Profile.Thermal.Enabled() {
				caps := 0
				for _, ct := range cold.Clusters {
					caps += ct.Throttle.Len()
				}
				if caps == 0 {
					t.Fatal("thermal row never throttled; it would not exercise throttle state")
				}
			}

			sess := NewReplaySession(replayed(), rec)
			// Burn-in fork with a different seed: the equivalence fork below
			// then runs on a session whose device has already lived a full,
			// divergent run.
			sess.Replay(mkGovs(), name, 7, true)
			fork := sess.Replay(mkGovs(), name, 42, true)
			requireSameRun(t, row.name+"/fork-after-burn-in", cold, fork)

			// Forking the same seed again must reproduce the same run: the
			// artefacts handed out above stay valid and the session state is
			// fully rewound each time.
			again := sess.Replay(mkGovs(), name, 42, true)
			requireSameRun(t, row.name+"/fork-repeat", fork, again)
		})
	}
}

// TestForkEqualsColdRunFixedGovernor covers the sweep's dominant
// configuration shape (fixed-OPP pins, no capture) on the default spec.
func TestForkEqualsColdRunFixedGovernor(t *testing.T) {
	w := Quickstart()
	rec, _, err := w.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	table := w.Profile.SoCSpec().Clusters[0].Table
	mkGovs := func(idx int) []governor.Governor {
		return []governor.Governor{governor.NewFixed(table, idx)}
	}
	for _, idx := range []int{0, 7, len(table) - 1} {
		cold := coldReplay(w, rec, mkGovs(idx), "fixed", 42, false)
		sess := NewReplaySession(w, rec)
		sess.Replay(mkGovs(idx), "fixed", 9, false)
		fork := sess.Replay(mkGovs(idx), "fixed", 42, false)
		requireSameRun(t, fmt.Sprintf("fixed-opp-%d", idx), cold, fork)
	}
}
