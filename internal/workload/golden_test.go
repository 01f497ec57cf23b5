package workload

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/soc"
	"repro/internal/thermal"
)

// TestDragonboardGoldenTraces pins the multi-cluster refactor's central
// compatibility guarantee at the system level: recording the quickstart
// workload and replaying it under each load-based governor on the default
// (Dragonboard) profile produces traces byte-identical to the
// pre-multi-cluster simulator. The hashes below were captured on the seed
// commit, before soc.SoC existed, with exactly this procedure; they cover
// the frequency transition trace, the per-OPP busy histogram and the busy
// curve. If a deliberate behaviour change invalidates them, regenerate with
// the same record/replay seeds and update the constants alongside the
// change that justifies it.
//
// Golden-trace update (checkpoint/fork replay): these hashes were
// regenerated when device construction split into Boot (seed-independent
// warm prefix: silicon, apps, background-service start) and Seal (run seed,
// governors, traces, ticks). Boot-time jitter draws now come from a fixed
// boot-seed stream instead of the head of the run-seed stream, so every
// run's RNG consumption shifted — an intentional change that makes the
// prefix identical across runs and lets forked replays diverge exactly at
// Seal. The fork≡cold equivalence tests in fork_test.go pin the new
// behaviour bit-for-bit.
func TestDragonboardGoldenTraces(t *testing.T) {
	golden := map[string]string{
		"ondemand":     "c206d98f9b06e4f0",
		"interactive":  "61fe50a8e8374ae4",
		"conservative": "e645b47c4e6bf03a",
	}
	w := Quickstart()
	rec, _, err := w.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		gov  governor.Governor
	}{
		{"ondemand", governor.NewOndemand()},
		{"interactive", governor.NewInteractive()},
		{"conservative", governor.NewConservative()},
	} {
		art := Replay(w, rec, cfg.gov, cfg.name, 42, false)
		h := sha256.New()
		for _, p := range art.FreqTrace.Points {
			fmt.Fprintf(h, "%d:%d;", p.At, p.OPPIndex)
		}
		for _, d := range art.BusyByOPP {
			fmt.Fprintf(h, "%d,", d)
		}
		for _, c := range art.BusyCurve.Cum {
			fmt.Fprintf(h, "%d.", c)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != golden[cfg.name] {
			t.Errorf("%s trace hash = %s, want pre-refactor %s", cfg.name, got, golden[cfg.name])
		}
		if len(art.Clusters) != 1 {
			t.Errorf("%s: %d cluster traces on Dragonboard, want 1", cfg.name, len(art.Clusters))
		}
		if art.Migrations != 0 {
			t.Errorf("%s: %d migrations on a single-cluster SoC", cfg.name, art.Migrations)
		}
	}
}

// TestBigLittleGoldenTraces extends the golden-trace guarantee to the
// multi-cluster platform: recording the quickstart workload on
// soc.BigLittle44 and replaying it under per-cluster stock governors must
// reproduce the per-cluster frequency transition traces and busy histograms
// captured when the thermal-pipeline refactor landed. This pins the
// request/arbitrate/apply path (and future refactors) against silently
// changing multi-cluster behaviour: with no caps configured,
// RequestOPPIndex must be event-for-event identical to the old direct
// SetOPPIndex coupling.
//
// Golden-trace update (per-core load meter): these hashes were regenerated
// when the governor load meter switched from the domain-average load
// (busy / (wall x cores)) to per-core tracking with max-of-CPUs. On
// multi-core clusters every load-based governor now sees a saturated core
// as 100% load instead of 25% and ramps accordingly, shifting frequency
// transitions, per-OPP busy attribution and migrations — an intentional
// behaviour fix (the ROADMAP "per-core load tracking" item), not an
// accidental regression. The single-core Dragonboard hashes above are
// untouched: with one core, max-of-CPUs and the domain average coincide.
//
// Regenerated again for the checkpoint/fork replay Boot/Seal split; see the
// update note on TestDragonboardGoldenTraces.
func TestBigLittleGoldenTraces(t *testing.T) {
	golden := map[string]string{
		"ondemand":     "4fa59f30bb6faf7e",
		"interactive":  "9aadfe70c7a71362",
		"conservative": "74fc7742f1c1e646",
	}
	w := Quickstart()
	w.Profile.SoC = soc.BigLittle44()
	rec, _, err := w.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		mk   func() governor.Governor
	}{
		{"ondemand", func() governor.Governor { return governor.NewOndemand() }},
		{"interactive", func() governor.Governor { return governor.NewInteractive() }},
		{"conservative", func() governor.Governor { return governor.NewConservative() }},
	} {
		govs := []governor.Governor{cfg.mk(), cfg.mk()}
		art := ReplayMulti(w, rec, govs, cfg.name, 42, false)
		if len(art.Clusters) != 2 {
			t.Fatalf("%s: %d cluster traces on big.LITTLE, want 2", cfg.name, len(art.Clusters))
		}
		h := sha256.New()
		for ci, ct := range art.Clusters {
			for _, p := range ct.Freq.Points {
				fmt.Fprintf(h, "%d|%d:%d;", ci, p.At, p.OPPIndex)
			}
			for _, d := range art.BusyByCluster[ci] {
				fmt.Fprintf(h, "%d,", d)
			}
			for _, c := range ct.Busy.Cum {
				fmt.Fprintf(h, "%d.", c)
			}
		}
		fmt.Fprintf(h, "m%d", art.Migrations)
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != golden[cfg.name] {
			t.Errorf("%s big.LITTLE trace hash = %s, want %s", cfg.name, got, golden[cfg.name])
		}
	}
}

// TestCapturedVideoGolden pins the captured pixels themselves. The trace
// goldens above replay with capture off, and the fork≡cold tests compare
// two runs of one build, so without this test a change to rendering or to
// the recorder could move every captured frame, and with it every lag the
// matcher reads, unnoticed. Each row records once and replays through one
// ReplaySession under ondemand, interactive and the lowest and highest
// fixed OPP, at two seeds; its hash covers every replay's video runs
// (start, count, pixels) and ground truth. The rows span the five Table I
// datasets and quickstart on the Dragonboard, quickstart and dataset04 on
// big.LITTLE with C-state ladders, and the sustained thermal export
// marathon whose throttler binds.
//
// The constants were captured before frame rendering became demand driven
// (a vsync redraws only frames that read the clock). A mismatch after a
// change meant only to make capture faster is a bug in that change: some
// Render reads state that changes without Invalidate, or the recorder
// sleeps over a different set of instants. Do not regenerate the constants
// for it.
func TestCapturedVideoGolden(t *testing.T) {
	onSpec := func(mk func() *Workload, spec soc.Spec) func() *Workload {
		return func() *Workload {
			w := mk()
			w.Profile.SoC = spec
			return w
		}
	}
	bigIdle := soc.WithDefaultIdle(soc.BigLittle44())
	rows := []struct {
		name   string
		w      func() *Workload
		repeat int
		golden string
	}{
		{"dataset01", Dataset01, 1, "d9a221b4126e2113"},
		{"dataset02", Dataset02, 1, "b40684ce532b6094"},
		{"dataset03", Dataset03, 1, "1464d4cf47c9171f"},
		{"dataset04", Dataset04, 1, "f943a2e28277a331"},
		{"dataset05", Dataset05, 1, "7acf98496c94bfef"},
		{"quickstart", Quickstart, 1, "6900a39984f3ecf4"},
		{"biglittle-idle/quickstart", onSpec(Quickstart, bigIdle), 1, "0e38252e5e6907fc"},
		{"biglittle-idle/dataset04", onSpec(Dataset04, bigIdle), 1, "33c2374a1115b64a"},
		{"thermal/exportmarathon", func() *Workload {
			w := ExportMarathon()
			w.Profile.SoC = soc.BigLittle44()
			w.Profile.Thermal = thermal.PhoneConfig(2, 30, 5)
			model, err := w.Profile.SoC.Calibrate(0)
			if err != nil {
				t.Fatal(err)
			}
			w.Profile.ThermalPower = model
			return w
		}, 2, "7268565304e9e44d"},
	}
	for _, row := range rows {
		w := row.w()
		rec, _, err := w.Record(1)
		if err != nil {
			t.Fatal(err)
		}
		rec = rec.Repeat(row.repeat)
		clusters := w.Profile.SoCSpec().Clusters
		configs := []struct {
			name string
			mk   func(i int) governor.Governor
		}{
			{"ondemand", func(int) governor.Governor { return governor.NewOndemand() }},
			{"interactive", func(int) governor.Governor { return governor.NewInteractive() }},
			{"lowest-opp", func(i int) governor.Governor { return governor.NewFixed(clusters[i].Table, 0) }},
			{"highest-opp", func(i int) governor.Governor {
				return governor.NewFixed(clusters[i].Table, len(clusters[i].Table)-1)
			}},
		}
		sess := NewReplaySession(w, rec)
		h := sha256.New()
		for _, cfg := range configs {
			for _, seed := range []uint64{1, 2} {
				govs := make([]governor.Governor, len(clusters))
				for i := range govs {
					govs[i] = cfg.mk(i)
				}
				art := sess.Replay(govs, cfg.name, seed, true)
				fmt.Fprintf(h, "%s/%d:", cfg.name, seed)
				for _, r := range art.Video.Runs() {
					fmt.Fprintf(h, "%d+%d;", r.Start, r.Count)
					h.Write(r.Frame.Pix())
				}
				for _, gt := range art.Truths {
					fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d|%t|%t|%d|%v;", gt.Index, gt.Label, gt.Class, gt.Kind,
						gt.InputTime, gt.DispatchTime, gt.Spurious, gt.Complete, gt.CompleteTime, gt.MaskRects)
				}
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != row.golden {
			t.Errorf("%s: captured video hash = %s, want %s", row.name, got, row.golden)
		}
	}
}

// TestQuietTickGolden pins every trace point that the governors' load
// samples and the record-only thermal tick produce on idle-heavy runs, where
// most of those samples change nothing. Each row records once and replays
// through one ReplaySession under each governor mix at seeds 1–3; its hash
// covers, per replay and cluster, every frequency transition, every
// temperature point (bit for bit), every busy-grid sample and the per-OPP
// busy histogram. The record-only row steps RC zones with no trip on
// big.LITTLE with C-state ladders; no other golden pins a temperature that
// no throttler acts on. The Dragonboard row replays dataset03, whose
// governor samples mostly fall on an idle core.
//
// The constants were captured before an idle domain could pass a sample
// without running it. A speed-only change must keep them; do not
// regenerate them for one.
func TestQuietTickGolden(t *testing.T) {
	recordOnly := func() *Workload {
		w := Quickstart()
		w.Profile.SoC = soc.WithDefaultIdle(soc.BigLittle44())
		w.Profile.Thermal = thermal.PhoneConfig(2, -1, 0)
		model, err := w.Profile.SoC.Calibrate(0)
		if err != nil {
			t.Fatal(err)
		}
		w.Profile.ThermalPower = model
		return w
	}
	type mix struct {
		name string
		mk   func(tbls []power.Table) []governor.Governor
	}
	per := func(mk ...func(power.Table) governor.Governor) func([]power.Table) []governor.Governor {
		return func(tbls []power.Table) []governor.Governor {
			govs := make([]governor.Governor, len(tbls))
			for i, tbl := range tbls {
				govs[i] = mk[i](tbl)
			}
			return govs
		}
	}
	ondemand := func(power.Table) governor.Governor { return governor.NewOndemand() }
	interactive := func(power.Table) governor.Governor { return governor.NewInteractive() }
	conservative := func(power.Table) governor.Governor { return governor.NewConservative() }
	powersave := func(tbl power.Table) governor.Governor { return governor.Powersave(tbl) }
	rows := []struct {
		name   string
		w      func() *Workload
		mixes  []mix
		temps  int
		golden string
	}{
		{"biglittle-idle/record-only/quickstart", recordOnly, []mix{
			{"interactive/interactive", per(interactive, interactive)},
			{"ondemand/conservative", per(ondemand, conservative)},
			{"powersave/interactive", per(powersave, interactive)},
		}, 32418, "26b8f46eb9dfbb1c"},
		{"dragonboard/dataset03", Dataset03, []mix{
			{"ondemand", per(ondemand)},
			{"interactive", per(interactive)},
			{"conservative", per(conservative)},
		}, 0, "80574a5f581bd915"},
	}
	for _, row := range rows {
		w := row.w()
		rec, _, err := w.Record(1)
		if err != nil {
			t.Fatal(err)
		}
		var tbls []power.Table
		for _, cs := range w.Profile.SoCSpec().Clusters {
			tbls = append(tbls, cs.Table)
		}
		sess := NewReplaySession(w, rec)
		h := sha256.New()
		temps := 0
		for _, m := range row.mixes {
			for _, seed := range []uint64{1, 2, 3} {
				art := sess.Replay(m.mk(tbls), m.name, seed, false)
				fmt.Fprintf(h, "%s/%d:", m.name, seed)
				for ci, ct := range art.Clusters {
					for _, p := range ct.Freq.Points {
						fmt.Fprintf(h, "%d|%d:%d;", ci, p.At, p.OPPIndex)
					}
					for _, p := range ct.Temp.Points {
						fmt.Fprintf(h, "%d|%d:%x;", ci, p.At, math.Float64bits(p.TempC))
					}
					temps += len(ct.Temp.Points)
					for _, c := range ct.Busy.Cum {
						fmt.Fprintf(h, "%d.", c)
					}
					for _, d := range art.BusyByCluster[ci] {
						fmt.Fprintf(h, "%d,", d)
					}
				}
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != row.golden || temps != row.temps {
			t.Errorf("%s: trace hash = %s over %d temperature points, want %s over %d",
				row.name, got, temps, row.golden, row.temps)
		}
	}
}

// TestLegacyBenchGolden pins the play/pause path of the music decoder.
// legacybench is the one built-in workload that starts playback and pauses
// it again: it taps play in the music player, listens for a minute and taps
// pause. The row records once and replays through one ReplaySession under
// ondemand and the lowest and highest fixed OPP at seeds 1 and 2; its hash
// covers every frequency transition, the busy curve, the per-OPP busy
// histogram and the ground truth of each replay. A decoder that misses a
// play tap, or decodes on after a pause, moves the decode load and so every
// one of those traces.
//
// The constants were captured while the paused decoder still ran every
// tick live. A speed-only change must keep them; do not regenerate them
// for one.
func TestLegacyBenchGolden(t *testing.T) {
	const golden, lags = "1e944b25b023360a", 204
	w := LegacyBench()
	rec, _, err := w.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := w.Profile.SoCSpec().Clusters[0].Table
	configs := []struct {
		name string
		mk   func() governor.Governor
	}{
		{"ondemand", func() governor.Governor { return governor.NewOndemand() }},
		{"lowest-opp", func() governor.Governor { return governor.NewFixed(tbl, 0) }},
		{"highest-opp", func() governor.Governor { return governor.NewFixed(tbl, len(tbl)-1) }},
	}
	sess := NewReplaySession(w, rec)
	h := sha256.New()
	truths := 0
	for _, cfg := range configs {
		for _, seed := range []uint64{1, 2} {
			art := sess.Replay([]governor.Governor{cfg.mk()}, cfg.name, seed, false)
			fmt.Fprintf(h, "%s/%d:", cfg.name, seed)
			for _, p := range art.FreqTrace.Points {
				fmt.Fprintf(h, "%d:%d;", p.At, p.OPPIndex)
			}
			for _, c := range art.BusyCurve.Cum {
				fmt.Fprintf(h, "%d.", c)
			}
			for _, d := range art.BusyByOPP {
				fmt.Fprintf(h, "%d,", d)
			}
			for _, gt := range art.Truths {
				fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d|%t|%t|%d;", gt.Index, gt.Label, gt.Class, gt.Kind,
					gt.InputTime, gt.DispatchTime, gt.Spurious, gt.Complete, gt.CompleteTime)
			}
			truths += len(art.Truths)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != golden || truths != lags {
		t.Errorf("legacybench trace hash = %s over %d ground truths, want %s over %d", got, truths, golden, lags)
	}
}

// TestReplayEventCounts pins the engine's work on two replays: the
// callbacks it runs and the quiet events it passes (sim.Engine.Counts). A
// bulk pass counts every tick it stands for, so run + passed is the number
// of events a replay dispatches, quiet or live. The constants were taken
// before the paused music decoder went quiet, as 2,315 run + 18,931 passed
// on the record-only big.LITTLE row and 7,894 + 31,054 on dataset03; quieting
// it moved exactly its 720 and 2,640 paused ticks from run to passed. A
// speed-only change must keep the sums; a change that moves work between
// run and passed states by how much and why.
func TestReplayEventCounts(t *testing.T) {
	recordOnly := func() *Workload {
		w := Quickstart()
		w.Profile.SoC = soc.WithDefaultIdle(soc.BigLittle44())
		w.Profile.Thermal = thermal.PhoneConfig(2, -1, 0)
		model, err := w.Profile.SoC.Calibrate(0)
		if err != nil {
			t.Fatal(err)
		}
		w.Profile.ThermalPower = model
		return w
	}
	rows := []struct {
		name        string
		w           func() *Workload
		govs        func() []governor.Governor
		run, passed uint64
	}{
		{"biglittle-idle/record-only/quickstart/interactive", recordOnly, func() []governor.Governor {
			return []governor.Governor{governor.NewInteractive(), governor.NewInteractive()}
		}, 2315 - 720, 18931 + 720},
		{"dragonboard/dataset03/ondemand", Dataset03, func() []governor.Governor {
			return []governor.Governor{governor.NewOndemand()}
		}, 7894 - 2640, 31054 + 2640},
	}
	for _, row := range rows {
		w := row.w()
		rec, _, err := w.Record(1)
		if err != nil {
			t.Fatal(err)
		}
		sess := NewReplaySession(w, rec)
		sess.Replay(row.govs(), row.name, 1, false)
		if run, passed := sess.Eng.Counts(); run != row.run || passed != row.passed {
			t.Errorf("%s: %d run and %d passed, want %d and %d", row.name, run, passed, row.run, row.passed)
		}
	}
}
