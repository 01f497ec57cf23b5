// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Table I, Figs. 3, 5, 7, 10,
// 11, 12, 13, 14 and the headline numbers), plus ablation benchmarks for the
// design decisions called out in DESIGN.md §5.
//
// Figure benchmarks share one evaluation matrix (2 repetitions for bench
// runtime; cmd/qoebench runs the paper's full 5) built lazily on first use;
// BenchmarkEvaluationMatrix measures building that matrix from scratch.
package repro_test

import (
	"io"
	"sync"
	"testing"

	"repro/internal/annotate"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/evdev"
	"repro/internal/experiment"
	"repro/internal/governor"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/population"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/screen"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/suggest"
	"repro/internal/thermal"
	"repro/internal/video"
	"repro/internal/workload"
)

var (
	matrixOnce    sync.Once
	matrixResults []*experiment.MatrixResult
)

// evaluationMatrix returns the paper's study — the config matrix on
// Dragonboard — for every dataset, plus the calibrated Krait model.
func evaluationMatrix(b *testing.B) ([]*experiment.MatrixResult, *power.Model) {
	b.Helper()
	matrixOnce.Do(func() {
		for _, w := range workload.Datasets() {
			res, err := experiment.RunMatrix(w, soc.Dragonboard(), experiment.Options{Reps: 2, Seed: 1})
			if err != nil {
				b.Fatalf("%s: %v", w.Name, err)
			}
			matrixResults = append(matrixResults, res)
		}
	})
	if matrixResults == nil {
		b.Fatal("evaluation matrix unavailable")
	}
	return matrixResults, matrixResults[0].Model.Cluster(0)
}

// BenchmarkEvaluationMatrix measures the full §III-A experiment for one
// dataset: calibrate, record, annotate, 17 configurations × 2 reps, oracle.
func BenchmarkEvaluationMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunMatrix(workload.Dataset02(), soc.Dragonboard(), experiment.Options{Reps: 2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Workloads regenerates Table I.
func BenchmarkTable1Workloads(b *testing.B) {
	results, _ := evaluationMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.TableI(io.Discard, results)
	}
}

// BenchmarkFigure3OracleSnapshot regenerates the ondemand-vs-oracle
// frequency overlay of Fig. 3.
func BenchmarkFigure3OracleSnapshot(b *testing.B) {
	results, _ := evaluationMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure3(io.Discard, results[0], sim.Time(265*sim.Second))
	}
}

// BenchmarkFigure5Getevent regenerates the getevent excerpt of Fig. 5.
func BenchmarkFigure5Getevent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Figure5(io.Discard)
	}
}

// BenchmarkFigure7Suggester regenerates the suggester example of Fig. 7: the
// Gallery cold launch at the lowest fixed frequency.
func BenchmarkFigure7Suggester(b *testing.B) {
	results, model := evaluationMatrix(b)
	res := results[0]
	art := workload.Replay(res.Workload, res.Recording, governor.NewFixed(model.Table, 0), "0.30 GHz", 77, true)
	start := art.Video.IndexAt(res.Gestures[0].Start)
	end := art.Video.IndexAt(res.Gestures[1].Start)
	// The workload creator masks the loading spinner so each progressively
	// loaded album becomes one suggestion (the paper's Fig. 7 setup).
	cfg := suggest.Config{
		MinStill: 1,
		Mask:     video.NewMask(screen.ClockRect, apps.GalleryLoadSpinnerRect),
	}
	sugg := suggest.Suggest(art.Video, start, end, cfg)
	if len(sugg) < 5 || len(sugg) > 14 {
		b.Fatalf("gallery launch gave %d suggestions, paper reports 8-10", len(sugg))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure7(io.Discard, art.Video, start, end, cfg)
	}
}

// BenchmarkFigure10InputClassification regenerates the input classification
// of Fig. 10.
func BenchmarkFigure10InputClassification(b *testing.B) {
	results, _ := evaluationMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure10(io.Discard, results, nil)
	}
}

// BenchmarkFigure11LagDistributions regenerates the per-configuration lag
// duration distributions and the ondemand KDE of Fig. 11.
func BenchmarkFigure11LagDistributions(b *testing.B) {
	results, _ := evaluationMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure11(io.Discard, results[0])
	}
}

// BenchmarkFigure12IrritationEnergy regenerates Fig. 12 (dataset 02).
func BenchmarkFigure12IrritationEnergy(b *testing.B) {
	results, _ := evaluationMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure12(io.Discard, results[1])
	}
}

// BenchmarkFigure13Scatter regenerates the energy-vs-irritation scatter of
// Fig. 13 (dataset 02).
func BenchmarkFigure13Scatter(b *testing.B) {
	results, _ := evaluationMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure13(io.Discard, results[1])
	}
}

// BenchmarkFigure14Summary regenerates the cross-dataset governor summary of
// Fig. 14 and reports its headline metrics.
func BenchmarkFigure14Summary(b *testing.B) {
	results, _ := evaluationMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Figure14(io.Discard, results)
	}
	b.StopTimer()
	var cons, inter, ond float64
	for _, res := range results {
		cons += res.NormEnergy("conservative")
		inter += res.NormEnergy("interactive")
		ond += res.NormEnergy("ondemand")
	}
	n := float64(len(results))
	b.ReportMetric(cons/n, "conservativeE/oracle")
	b.ReportMetric(inter/n, "interactiveE/oracle")
	b.ReportMetric(ond/n, "ondemandE/oracle")
}

// BenchmarkHeadlineSavings regenerates the paper's headline numbers (27%
// saving vs the stock governor, 47% vs max frequency) and reports the
// measured equivalents as metrics.
func BenchmarkHeadlineSavings(b *testing.B) {
	results, model := evaluationMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Headlines(io.Discard, results)
	}
	b.StopTimer()
	maxLabel := model.Table[len(model.Table)-1].Label()
	bestGov, bestMax := 0.0, 0.0
	for _, res := range results {
		if v := 1 - 1/res.NormEnergy("interactive"); v > bestGov {
			bestGov = v
		}
		if v := 1 - 1/res.NormEnergy(maxLabel); v > bestMax {
			bestMax = v
		}
	}
	b.ReportMetric(bestGov*100, "%saved-vs-interactive")
	b.ReportMetric(bestMax*100, "%saved-vs-2.15GHz")
}

// BenchmarkAblationRLEMatcher compares the run-length matcher against a
// naive per-frame matcher (DESIGN.md ablation 1): both must find the same
// endings, the RLE one much faster.
func BenchmarkAblationRLEMatcher(b *testing.B) {
	results, _ := evaluationMatrix(b)
	res := results[0]
	art := workload.Replay(res.Workload, res.Recording, governor.NewOndemand(), "ondemand", 55, true)

	naive := func(v *video.Video, e *annotate.Entry, start int) (int, bool) {
		need := e.Occurrence
		inSeg := false
		for i := start + 1; i < v.Len(); i++ {
			sim := e.Similar(v.FrameAt(i))
			if sim && !inSeg {
				need--
				if need == 0 {
					return i, true
				}
			}
			inSeg = sim
		}
		return 0, false
	}

	b.Run("rle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := match.Match(art.Video, res.DB, res.Gestures, "ondemand", match.Options{Strict: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range res.DB.Entries {
				e := &res.DB.Entries[k]
				if e.Spurious {
					continue
				}
				if _, ok := naive(art.Video, e, art.Video.IndexAt(res.Gestures[k].Start)); !ok {
					b.Fatalf("naive matcher lost lag %d", k)
				}
			}
		}
	})
}

// BenchmarkAblationInputBoost measures the interactive governor with and
// without its input boost (DESIGN.md ablation 2), reporting irritation.
func BenchmarkAblationInputBoost(b *testing.B) {
	results, model := evaluationMatrix(b)
	res := results[1] // dataset02: typing-heavy, boost-sensitive
	run := func(b *testing.B, boost bool) {
		var irr sim.Duration
		for i := 0; i < b.N; i++ {
			gov := governor.NewInteractive()
			name := "interactive-ablation"
			g := governor.Governor(gov)
			if !boost {
				g = noBoost{gov}
			}
			art := workload.Replay(res.Workload, res.Recording, g, name, 91, true)
			profile, err := match.Match(art.Video, res.DB, res.Gestures, name, match.Options{Strict: true})
			if err != nil {
				b.Fatal(err)
			}
			irr = core.Irritation(profile, res.Thresholds)
		}
		b.ReportMetric(irr.Seconds(), "irritation-s")
		_ = model
	}
	b.Run("with-boost", func(b *testing.B) { run(b, true) })
	b.Run("no-boost", func(b *testing.B) { run(b, false) })
}

// noBoost wraps the interactive governor, dropping input notifications.
type noBoost struct{ *governor.Interactive }

func (n noBoost) OnInput(sim.Time) {}

// BenchmarkAblationThresholdModel compares oracle energy under the paper's
// 110%-of-fastest rule against fixed HCI-category thresholds (DESIGN.md
// ablation 3).
func BenchmarkAblationThresholdModel(b *testing.B) {
	results, _ := evaluationMatrix(b)
	res := results[0]
	b.Run("relative-110", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = res.OracleEnergyJ
		}
		b.ReportMetric(res.OracleEnergyJ, "oracle-J")
	})
	b.Run("hci-classes", func(b *testing.B) {
		// Rebuilding the oracle with the annotation DB's HCI thresholds.
		th := res.DB.Thresholds()
		var energy float64
		for i := 0; i < b.N; i++ {
			o, err := rebuildOracle(res, &th)
			if err != nil {
				b.Fatal(err)
			}
			energy = o
		}
		b.ReportMetric(energy, "oracle-J")
	})
}

func rebuildOracle(res *experiment.MatrixResult, th *core.Thresholds) (float64, error) {
	o, err := oracle.BuildCluster(res.Candidates[0], res.Model, 0, th)
	if err != nil {
		return 0, err
	}
	return o.EnergyJ, nil
}

// BenchmarkAblationRaceToIdle compares the power model with and without the
// base active power term (DESIGN.md ablation 4): without it the energy
// optimum collapses to the lowest frequency and the paper's race-to-idle
// disappears.
func BenchmarkAblationRaceToIdle(b *testing.B) {
	si := power.DefaultSilicon()
	with, err := power.Calibrate(power.Snapdragon8074(), si, 100*sim.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	si.BaseActiveW = 0
	without, err := power.Calibrate(power.Snapdragon8074(), si, 100*sim.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	if with.MostEfficientOPP() == 0 {
		b.Fatal("race-to-idle model degenerate: optimum at the lowest OPP")
	}
	// Without the base active power, energy/cycle collapses to C·V²: the
	// lowest OPP is tied-for-optimal across the flat-voltage plateau and
	// race-to-idle disappears.
	opt := without.MostEfficientOPP()
	if diff := without.EnergyPerCycleNJ(0) - without.EnergyPerCycleNJ(opt); diff > 1e-9 {
		b.Fatalf("without base power 0.30 GHz should be tied-optimal (diff %.3g nJ)", diff)
	}
	if with.EnergyPerCycleNJ(0) <= with.EnergyPerCycleNJ(with.MostEfficientOPP())+1e-9 {
		b.Fatal("with base power the bottom OPP must be strictly worse than the optimum")
	}
	b.ReportMetric(with.Table[with.MostEfficientOPP()].GHz(), "optimumGHz-with")
	b.ReportMetric(without.Table[without.MostEfficientOPP()].GHz(), "optimumGHz-without")
	for i := 0; i < b.N; i++ {
		_, _ = power.Calibrate(power.Snapdragon8074(), si, 100*sim.Millisecond)
	}
}

// BenchmarkReplayThroughput measures raw replay speed (simulated seconds per
// wall second) for one 10-minute dataset under ondemand.
func BenchmarkReplayThroughput(b *testing.B) {
	results, _ := evaluationMatrix(b)
	res := results[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.Replay(res.Workload, res.Recording, governor.NewOndemand(), "ondemand", uint64(i), true)
	}
	b.StopTimer()
	simSeconds := res.Recording.RunWindow().Seconds() * float64(b.N)
	b.ReportMetric(simSeconds/b.Elapsed().Seconds(), "sim-s/wall-s")
}

// BenchmarkBigLittleReplay measures multi-cluster replay speed: the
// quickstart workload on the 4+4 big.LITTLE spec with per-cluster
// interactive governors, reported as simulated seconds per wall second. It
// exercises the HMP scheduler, per-cluster traces and the
// request/arbitrate/apply frequency path with no caps active.
func BenchmarkBigLittleReplay(b *testing.B) {
	w := workload.Quickstart()
	w.Profile.SoC = soc.BigLittle44()
	rec, _, err := w.Record(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.ReplayMulti(w, rec, workload.StockGovernors(w.Profile), "interactive", uint64(i), false)
	}
	b.StopTimer()
	simSeconds := rec.RunWindow().Seconds() * float64(b.N)
	b.ReportMetric(simSeconds/b.Elapsed().Seconds(), "sim-s/wall-s")
}

// BenchmarkThermalReplay measures the same replay with thermal zones and a
// binding trip configured — the full pipeline including zone steps, cap
// arbitration and throttle-event capture.
func BenchmarkThermalReplay(b *testing.B) {
	w := workload.ExportMarathon()
	w.Profile.SoC = soc.BigLittle44()
	w.Profile.Thermal = thermal.PhoneConfig(2, 30, 5)
	// Pre-calibrate the power model the way real sweeps do, so the metric
	// measures the thermal pipeline rather than per-boot calibration.
	model, err := w.Profile.SoC.Calibrate(0)
	if err != nil {
		b.Fatal(err)
	}
	w.Profile.ThermalPower = model
	rec, _, err := w.Record(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.ReplayMulti(w, rec, workload.StockGovernors(w.Profile), "interactive", uint64(i), false)
	}
	b.StopTimer()
	simSeconds := rec.RunWindow().Seconds() * float64(b.N)
	b.ReportMetric(simSeconds/b.Elapsed().Seconds(), "sim-s/wall-s")
}

// BenchmarkThermalTick measures the thermal hot path in isolation: one RC
// zone step plus one throttler evaluation per iteration, the work the device
// performs per cluster every 100 ms of simulated time.
func BenchmarkThermalTick(b *testing.B) {
	zone := thermal.NewZone(thermal.ZoneParams{RThermCPerW: 16, TauS: 15})
	th := thermal.NewThrottler(thermal.ThrottleParams{TripC: 40, ClearC: 38, MinCapIdx: 5}, 13)
	period := 100 * sim.Millisecond
	for i := 0; i < b.N; i++ {
		// Alternate hot and cold phases so both throttler branches run.
		powerW := 2.5
		if i%256 >= 128 {
			powerW = 0.1
		}
		temp := zone.Step(period, powerW, 0.5)
		th.Update(temp)
	}
}

// BenchmarkPopulationSweep measures a small Monte Carlo population sweep —
// the fleet-characterisation path: seeded device generation, per-unit matrix
// replays with thermal zones, and the streaming digest fold. The allocs/op
// gate is what holds the sweep's flat-memory contract: per-run accumulation
// anywhere in the path shows up here as allocation growth.
func BenchmarkPopulationSweep(b *testing.B) {
	w := workload.Quickstart()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunPopulation(w, soc.Dragonboard(), experiment.PopulationOptions{
			Options:     experiment.Options{Reps: 1, Seed: 1, Configs: []string{"2.15 GHz", "ondemand"}},
			Units:       4,
			Model:       population.DefaultModel(),
			BaseThermal: thermal.PhoneConfig(1, 0, 0),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Runs != 8 {
			b.Fatalf("folded %d runs, want 8", res.Runs)
		}
	}
}

// BenchmarkRecord24Hour measures recording the 24-hour workload (the Fig. 10
// rightmost bars) — the stress case for the run-length video and event queue.
func BenchmarkRecord24Hour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec, truths, err := workload.TwentyFourHour().Record(1)
		if err != nil {
			b.Fatal(err)
		}
		gs := evdev.Classify(rec.Events)
		if len(gs) != len(truths) {
			b.Fatalf("gesture/truth mismatch: %d vs %d", len(gs), len(truths))
		}
	}
}
