// Command qoebench runs the paper's full evaluation and regenerates every
// table and figure: Table I, Fig. 3 (governor vs oracle frequency snapshot),
// Fig. 5 (getevent format), Fig. 7 (suggester), Fig. 10 (input
// classification), Fig. 11 (lag distributions), Fig. 12 (irritation and
// energy), Fig. 13 (scatter), Fig. 14 (cross-dataset summary) and the
// headline savings numbers.
//
// Usage:
//
//	qoebench [-reps 5] [-seed 1] [-with24h] [-figure all|1|3|5|7|10|11|12|13|14|headlines]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/experiment"
	"repro/internal/governor"
	"repro/internal/match"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/screen"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/suggest"
	"repro/internal/video"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "qoebench:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, sweeps every dataset and prints
// the requested tables and figures to stdout, progress to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qoebench", flag.ExitOnError)
	fs.SetOutput(stderr)
	reps := fs.Int("reps", 5, "repetitions per configuration (paper: 5)")
	seed := fs.Uint64("seed", 1, "master seed")
	with24h := fs.Bool("with24h", true, "include the 24-hour workload in Fig. 10")
	figure := fs.String("figure", "all", "which table/figure to print (all, 1, 3, 5, 7, 10, 11, 12, 13, 14, headlines)")
	jsonOut := fs.String("json", "", "also write per-dataset result summaries as JSON")
	verbose := fs.Bool("v", true, "print progress")
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := func(name string) bool { return *figure == "all" || *figure == name }

	var progress func(string)
	if *verbose {
		progress = func(msg string) { fmt.Fprintln(stderr, msg) }
	}

	// The paper's study is the config matrix on its Dragonboard.
	start := time.Now()
	opts := experiment.Options{Reps: *reps, Seed: *seed, Progress: progress}
	var results []*experiment.MatrixResult
	for _, w := range workload.Datasets() {
		res, err := experiment.RunMatrix(w, soc.Dragonboard(), opts)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	fmt.Fprintf(stderr, "matrix complete: %d datasets x %d configs x %d reps in %v\n",
		len(results), len(results[0].Configs), *reps, time.Since(start).Round(time.Millisecond))

	model := results[0].Model.Cluster(0)
	fmt.Fprintf(stdout, "power model: %s\n", model)
	fmt.Fprintf(stdout, "energy/cycle by OPP (nJ):")
	for i := range model.Table {
		fmt.Fprintf(stdout, " %.2f=%0.3f", model.Table[i].GHz(), model.EnergyPerCycleNJ(i))
	}
	fmt.Fprintln(stdout)

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := experiment.WriteSummaries(f, results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "summaries -> %s\n", *jsonOut)
	}

	section := func() { fmt.Fprintln(stdout, "\n"+strings.Repeat("=", 78)) }

	if want("1") {
		section()
		report.TableI(stdout, results)
	}
	if want("3") {
		section()
		// The paper's Fig. 3 shows dataset 01 around t=265s.
		report.Figure3(stdout, results[0], sim.Time(265*sim.Second))
	}
	if want("5") {
		section()
		report.Figure5(stdout)
	}
	if want("7") {
		section()
		figure7(stdout, results[0], model)
	}
	if want("10") {
		section()
		extra := map[string][4]int{}
		if *with24h {
			fmt.Fprintln(stderr, "[24hour] recording the 24-hour workload")
			rec24, truths24, err := workload.TwentyFourHour().Record(*seed)
			if err != nil {
				return err
			}
			t, s, a, sp := experiment.ClassifyInputs(match.Gestures(rec24.Events), truths24)
			extra["24hour"] = [4]int{t, s, a, sp}
		}
		report.Figure10(stdout, results, extra)
	}
	if want("11") {
		section()
		report.Figure11(stdout, results[0])
	}
	if want("12") {
		section()
		report.Figure12(stdout, results[1]) // paper uses dataset 02
	}
	if want("13") {
		section()
		report.Figure13(stdout, results[1])
	}
	if want("14") {
		section()
		report.Figure14(stdout, results)
	}
	if want("headlines") {
		section()
		report.Headlines(stdout, results)
	}
	return nil
}

// figure7 re-creates the paper's suggester example: the Gallery cold launch
// of dataset 01 replayed at the lowest fixed frequency ("loading the Gallery
// takes about 200 frames at the lowest CPU frequency").
func figure7(stdout io.Writer, res *experiment.MatrixResult, model *power.Model) {
	w := res.Workload
	art := workload.Replay(w, res.Recording, governor.NewFixed(model.Table, 0), "0.30 GHz", 77, true)
	gs := res.Gestures
	// Lag 0 is the gallery launch. The workload creator masks the loading
	// spinner, the paper's "if a small animation prevents the suggester
	// from finding still standing images, a mask can be applied" example —
	// so each progressively loaded album yields one suggestion.
	startIdx := art.Video.IndexAt(gs[0].Start)
	endIdx := art.Video.IndexAt(gs[1].Start)
	cfg := suggest.Config{
		MinStill: 1,
		Mask:     video.NewMask(screen.ClockRect, apps.GalleryLoadSpinnerRect),
	}
	report.Figure7(stdout, art.Video, startIdx, endIdx, cfg)

	// The paper's tuning example: requiring 30 zeros cuts the suggestions.
	cfg.MinStill = 30
	sugg := suggest.Suggest(art.Video, startIdx, endIdx, cfg)
	fmt.Fprintf(stdout, "with min-still 30 (paper's tuning example): %d suggestions\n", len(sugg))
}
