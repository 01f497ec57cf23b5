// Command benchbase measures the replay-path benchmarks outside the go test
// harness and records them in BENCH_results.json, so every PR leaves a
// committed performance trajectory instead of folklore. It covers the four
// benchmarks the performance work is gated on: single-cluster replay
// throughput, big.LITTLE replay throughput, the thermal pipeline replay, and
// the full single-dataset evaluation matrix.
//
// Usage:
//
//	benchbase [-o BENCH_results.json] [-label "PR N short description"]
//	benchbase -compare [-against BENCH_results.json] [-threshold 0.15] \
//	          [-benches ReplayThroughput,EvaluationMatrix] [-reps 3]
//
// In record mode the tool appends one labelled entry to the file's history
// (creating the file if needed), keeping earlier entries untouched — compare
// the latest entry against its predecessors to see whether a change helped.
// Metrics are ns/op, allocs/op, B/op and, for the replay benches, simulated
// seconds per wall second.
//
// In -compare mode (the CI bench-regression gate) the tool re-runs the named
// benchmarks -reps times each (default 3), takes the per-metric median, and
// fails (exit 1) if any metric regresses more than the threshold against the
// most recent committed entry that measured it: ns/op and allocs/op may each
// grow at most threshold×, and sim-s/wall-s — gated separately because
// throughput regressions can hide behind alloc-neutral changes — may shrink
// at most threshold×. Allocation counts are deterministic; wall time on
// shared runners is noisy, which is why the comparison uses medians, the
// default threshold is a generous 15% and the gate covers only the two
// benches whose regressions have bitten before.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/governor"
	"repro/internal/population"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Metrics is one benchmark's measurement.
type Metrics struct {
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	SimSPerWallS float64 `json:"sim_s_per_wall_s,omitempty"`
	Iterations   int     `json:"iterations"`
}

// Entry is one labelled benchmark session.
type Entry struct {
	Label   string             `json:"label"`
	Go      string             `json:"go"`
	Benches map[string]Metrics `json:"benches"`
}

// File is the BENCH_results.json schema.
type File struct {
	Comment string  `json:"_comment"`
	History []Entry `json:"history"`
}

const fileComment = "Replay-path benchmark trajectory; append entries with `go run ./tools/benchbase -label \"...\"`. See docs/performance.md."

// bench is one named measurable benchmark.
type bench struct {
	name string
	run  func() (testing.BenchmarkResult, float64)
}

// allBenches lists the committed benchmarks in trajectory order.
var allBenches = []bench{
	{"ReplayThroughput", benchReplayThroughput},
	{"BigLittleReplay", benchBigLittleReplay},
	{"ThermalReplay", benchThermalReplay},
	{"EvaluationMatrix", benchEvaluationMatrix},
	{"PopulationSweep", benchPopulationSweep},
}

func main() {
	out := flag.String("o", "BENCH_results.json", "results file to append to")
	label := flag.String("label", "", "label for this entry (required unless -compare)")
	compareMode := flag.Bool("compare", false, "regression gate: re-run benchmarks and fail if they regress against the committed baseline")
	against := flag.String("against", "BENCH_results.json", "baseline file for -compare")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional regression per metric in -compare (0.15 = 15%)")
	benches := flag.String("benches", "ReplayThroughput,EvaluationMatrix", "comma-separated benchmarks to run in -compare")
	reps := flag.Int("reps", 3, "runs per benchmark in -compare; the per-metric median is compared")
	flag.Parse()
	if *compareMode {
		os.Exit(runCompare(*against, *benches, *threshold, *reps))
	}
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchbase: -label is required (e.g. -label \"PR 5 idle states\")")
		os.Exit(1)
	}

	entry := Entry{Label: *label, Go: runtime.Version(), Benches: map[string]Metrics{}}
	for _, b := range allBenches {
		entry.Benches[b.name] = measure(b)
	}

	f, err := appendEntry(*out, entry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchbase:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchbase: %s now holds %d entries\n", *out, len(f.History))
}

// measure runs one benchmark and reports its metrics.
func measure(b bench) Metrics {
	fmt.Fprintf(os.Stderr, "benchbase: running %s...\n", b.name)
	r, simSPerWallS := b.run()
	m := Metrics{
		NsPerOp:      r.NsPerOp(),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		SimSPerWallS: simSPerWallS,
		Iterations:   r.N,
	}
	fmt.Fprintf(os.Stderr, "benchbase: %s: %d ns/op, %d allocs/op, %.0f sim-s/wall-s\n",
		b.name, m.NsPerOp, m.AllocsPerOp, m.SimSPerWallS)
	return m
}

// measureMedian runs one benchmark reps times and reports the per-metric
// median. Medians are taken metric-by-metric (the median-ns/op run need not
// be the median-throughput run): each metric's gate should see that metric's
// central value, not whichever metrics happened to share a run with it.
func measureMedian(b bench, reps int) Metrics {
	if reps < 1 {
		reps = 1
	}
	runs := make([]Metrics, reps)
	for i := range runs {
		runs[i] = measure(b)
	}
	med := Metrics{
		NsPerOp:      medianInt64(runs, func(m Metrics) int64 { return m.NsPerOp }),
		AllocsPerOp:  medianInt64(runs, func(m Metrics) int64 { return m.AllocsPerOp }),
		BytesPerOp:   medianInt64(runs, func(m Metrics) int64 { return m.BytesPerOp }),
		SimSPerWallS: medianFloat64(runs, func(m Metrics) float64 { return m.SimSPerWallS }),
		Iterations:   runs[0].Iterations,
	}
	if reps > 1 {
		fmt.Fprintf(os.Stderr, "benchbase: %s median of %d: %d ns/op, %d allocs/op, %.0f sim-s/wall-s\n",
			b.name, reps, med.NsPerOp, med.AllocsPerOp, med.SimSPerWallS)
	}
	return med
}

func medianInt64(runs []Metrics, get func(Metrics) int64) int64 {
	vs := make([]int64, len(runs))
	for i, m := range runs {
		vs[i] = get(m)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs[len(vs)/2]
}

func medianFloat64(runs []Metrics, get func(Metrics) float64) float64 {
	vs := make([]float64, len(runs))
	for i, m := range runs {
		vs[i] = get(m)
	}
	sort.Float64s(vs)
	return vs[len(vs)/2]
}

// runCompare is the bench-regression gate: re-measure the selected
// benchmarks (median of reps runs each) and compare each against the most
// recent baseline entry that recorded it. Returns the process exit code.
func runCompare(path, names string, threshold float64, reps int) int {
	f := &File{}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchbase:", err)
		return 1
	}
	if err := json.Unmarshal(data, f); err != nil {
		fmt.Fprintf(os.Stderr, "benchbase: parse %s: %v\n", path, err)
		return 1
	}
	var failures []string
	for _, want := range strings.Split(names, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		var b *bench
		for i := range allBenches {
			if allBenches[i].name == want {
				b = &allBenches[i]
				break
			}
		}
		if b == nil {
			fmt.Fprintf(os.Stderr, "benchbase: unknown benchmark %q\n", want)
			return 1
		}
		base, label, ok := latestBaseline(f, want)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchbase: %s: no baseline in %s, skipping\n", want, path)
			continue
		}
		cur := measureMedian(*b, reps)
		regs := regressions(want, base, cur, threshold)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "benchbase: REGRESSION vs %q: %s\n", label, r)
		}
		failures = append(failures, regs...)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchbase: %d metric(s) regressed more than %.0f%%\n",
			len(failures), threshold*100)
		return 1
	}
	fmt.Fprintln(os.Stderr, "benchbase: no regressions beyond the threshold")
	return 0
}

// latestBaseline returns the newest history entry measuring the benchmark.
func latestBaseline(f *File, name string) (Metrics, string, bool) {
	for i := len(f.History) - 1; i >= 0; i-- {
		if m, ok := f.History[i].Benches[name]; ok {
			return m, f.History[i].Label, true
		}
	}
	return Metrics{}, "", false
}

// regressions compares one benchmark's current metrics against its baseline
// and describes every metric that moved beyond the threshold in the bad
// direction: ns/op and allocs/op may grow at most threshold×, and
// sim-s/wall-s — the replay benches' end-to-end throughput, which an
// alloc-neutral ns/op-noisy change can erode unnoticed — may shrink at most
// threshold×. B/op is a derived view of allocs/op and would only
// double-report. A zero allocs/op baseline admits no growth at all — the
// repo's allocation work drives benches to 0 allocs/op, and a threshold
// scaled from zero would otherwise disable that gate permanently. Benches
// that do not report throughput (sim-s/wall-s 0, e.g. EvaluationMatrix)
// skip the throughput gate.
func regressions(name string, base, cur Metrics, threshold float64) []string {
	var out []string
	check := func(metric string, baseV, curV int64) {
		if baseV < 0 {
			return
		}
		if baseV == 0 {
			if curV > 0 {
				out = append(out, fmt.Sprintf("%s %s: %d, baseline is 0 (zero-%s benches admit no growth)",
					name, metric, curV, metric))
			}
			return
		}
		limit := float64(baseV) * (1 + threshold)
		if float64(curV) > limit {
			out = append(out, fmt.Sprintf("%s %s: %d > %d allowed (baseline %d, +%.0f%%)",
				name, metric, curV, int64(limit), baseV, 100*(float64(curV)/float64(baseV)-1)))
		}
	}
	check("ns/op", base.NsPerOp, cur.NsPerOp)
	check("allocs/op", base.AllocsPerOp, cur.AllocsPerOp)
	if base.SimSPerWallS > 0 && cur.SimSPerWallS >= 0 {
		floor := base.SimSPerWallS * (1 - threshold)
		if cur.SimSPerWallS < floor {
			out = append(out, fmt.Sprintf("%s sim-s/wall-s: %.0f < %.0f allowed (baseline %.0f, %.0f%%)",
				name, cur.SimSPerWallS, floor, base.SimSPerWallS,
				100*(cur.SimSPerWallS/base.SimSPerWallS-1)))
		}
	}
	return out
}

// appendEntry loads path (if present), appends entry and writes it back.
func appendEntry(path string, entry Entry) (*File, error) {
	f := &File{Comment: fileComment}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, f); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f.Comment = fileComment
	f.History = append(f.History, entry)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return f, os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchReplayThroughput mirrors BenchmarkReplayThroughput: the first dataset
// replayed under ondemand with video capture.
func benchReplayThroughput() (testing.BenchmarkResult, float64) {
	w := workload.Datasets()[0]
	rec, _, err := w.Record(1)
	if err != nil {
		fatal(err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			workload.Replay(w, rec, governor.NewOndemand(), "ondemand", uint64(i), true)
		}
	})
	return r, rec.RunWindow().Seconds() * float64(r.N) / r.T.Seconds()
}

// benchBigLittleReplay mirrors BenchmarkBigLittleReplay: the quickstart
// workload on the 4+4 big.LITTLE spec under per-cluster stock governors.
func benchBigLittleReplay() (testing.BenchmarkResult, float64) {
	w := workload.Quickstart()
	w.Profile.SoC = soc.BigLittle44()
	rec, _, err := w.Record(1)
	if err != nil {
		fatal(err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			workload.ReplayMulti(w, rec, workload.StockGovernors(w.Profile), "interactive", uint64(i), false)
		}
	})
	return r, rec.RunWindow().Seconds() * float64(r.N) / r.T.Seconds()
}

// benchThermalReplay mirrors BenchmarkThermalReplay: the sustained export
// marathon with thermal zones and a binding trip.
func benchThermalReplay() (testing.BenchmarkResult, float64) {
	w := workload.ExportMarathon()
	w.Profile.SoC = soc.BigLittle44()
	w.Profile.Thermal = thermal.PhoneConfig(2, 30, 5)
	model, err := w.Profile.SoC.Calibrate(0)
	if err != nil {
		fatal(err)
	}
	w.Profile.ThermalPower = model
	rec, _, err := w.Record(1)
	if err != nil {
		fatal(err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			workload.ReplayMulti(w, rec, workload.StockGovernors(w.Profile), "interactive", uint64(i), false)
		}
	})
	return r, rec.RunWindow().Seconds() * float64(r.N) / r.T.Seconds()
}

// benchEvaluationMatrix mirrors BenchmarkEvaluationMatrix: calibrate,
// record, annotate, 17 configurations x 2 reps, oracle — for one dataset.
func benchEvaluationMatrix() (testing.BenchmarkResult, float64) {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiment.RunMatrix(workload.Dataset02(), soc.Dragonboard(), experiment.Options{Reps: 2, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	return r, 0
}

// benchPopulationSweep mirrors BenchmarkPopulationSweep: a 4-unit Monte
// Carlo fleet (default perturbation model, record-only thermal zones) swept
// through two configs. Its allocs/op gate backs the population sweep's
// flat-memory contract.
func benchPopulationSweep() (testing.BenchmarkResult, float64) {
	w := workload.Quickstart()
	r := testing.Benchmark(func(b *testing.B) {
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
	})
	return r, 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchbase:", err)
	os.Exit(1)
}
