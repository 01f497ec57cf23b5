// Command qoereplay replays a recorded workload under a chosen configuration
// (a fixed frequency or a governor), runs the matcher against the annotation
// database, and emits the lag profile, user irritation and dynamic energy —
// the paper's Fig. 4 Part B as a single tool.
//
// With -repeat the recording is concatenated back to back (a sustained
// workload), and with -trip a per-cluster RC thermal model plus throttler is
// booted: the per-cluster summary then includes peak/steady temperature,
// throttled time and cap-change counts.
//
// With -sweep the single replay is replaced by the full characterisation
// matrix on the chosen SoC spec (experiment.RunMatrix): every fixed
// frequency, the homogeneous governors and — on biglittle — the mixed
// per-cluster governor arms, plus the energy-aware cluster oracle, rendered
// as the config-matrix table.
//
// With -idle every cluster gets the default C-state ladder
// (wfi/core-off/cluster-off): an idle cluster sinks down the ladder, work
// arrival pays the state's exit latency before dispatch, and idle residency
// is priced as leakage — the per-cluster summary then includes idle time,
// leakage energy, wake and mispredict counts.
//
// Usage:
//
//	qoereplay -workload dataset01 -trace dataset01.trace -db dataset01.adb \
//	          -config ondemand [-soc dragonboard|biglittle] [-seed 2] [-o profile.json] \
//	          [-repeat 3] [-trip 32] [-clear 30] [-mincap 5] [-idle]
//	qoereplay -workload quickstart -soc biglittle -sweep [-reps 2] [-idle]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/evdev"
	"repro/internal/experiment"
	"repro/internal/match"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

func main() {
	name := flag.String("workload", "quickstart", "workload name matching the trace")
	tracePath := flag.String("trace", "", "getevent trace recorded by qoerecord")
	dbPath := flag.String("db", "", "annotation DB built by qoeannotate")
	config := flag.String("config", "interactive", "configuration: governor name or frequency label like '0.96 GHz'")
	socName := flag.String("soc", "dragonboard", "SoC spec: dragonboard (paper, single Krait core) or biglittle (4+4)")
	seed := flag.Uint64("seed", 2, "replay seed")
	out := flag.String("o", "", "write the lag profile as JSON")
	repeat := flag.Int("repeat", 1, "replay the recording N times back to back (sustained workload)")
	trip := flag.Float64("trip", 0, "thermal trip temperature in °C; 0 disables the thermal model")
	clear := flag.Float64("clear", 0, "thermal clear temperature in °C (default trip-2)")
	minCap := flag.Int("mincap", 5, "lowest OPP index the throttler may cap to")
	sweep := flag.Bool("sweep", false, "run the full config matrix + cluster oracle on the chosen SoC instead of one replay")
	reps := flag.Int("reps", 2, "repetitions per configuration in -sweep mode (paper: 5)")
	idle := flag.Bool("idle", false, "enable the per-cluster C-state ladder (wfi/core-off/cluster-off): wakes cost exit latency and idle time leaks")
	flag.Parse()

	w := workload.ByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	spec, err := serve.SpecByName(*socName, *idle)
	if err != nil {
		fatal(err)
	}
	if *sweep {
		if *tracePath != "" || *dbPath != "" || *repeat > 1 || *trip > 0 {
			fatal(fmt.Errorf("-sweep records and annotates internally; it cannot be combined with -trace/-db/-repeat/-trip"))
		}
		// -config and -o have non-empty semantics only for single replays;
		// reject them explicitly rather than silently ignoring a filter or
		// an output path the user asked for.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "config" || f.Name == "o" {
				fatal(fmt.Errorf("-%s applies to a single replay; -sweep runs the whole matrix and prints its table", f.Name))
			}
		})
		res, err := experiment.RunMatrix(w, spec, experiment.Options{
			Reps: *reps, Seed: *seed,
			Progress: func(msg string) { fmt.Fprintln(os.Stderr, msg) },
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		if err := report.MatrixTable(os.Stdout, res); err != nil {
			fatal(err)
		}
		return
	}
	w.Profile.SoC = spec
	socModel, err := spec.Calibrate(0)
	if err != nil {
		fatal(err)
	}
	rec, err := loadTrace(w, *tracePath)
	if err != nil {
		fatal(err)
	}
	if *repeat > 1 {
		if *dbPath != "" {
			// A DB built from the unrepeated trace has one entry per original
			// gesture; the repeated recording yields repeat× as many, and the
			// matcher rejects the mismatch. Annotation must cover the
			// sustained recording itself.
			fatal(fmt.Errorf("-db cannot be combined with -repeat %d: the annotation DB must be built from the repeated recording (omit -db to build it on the fly)", *repeat))
		}
		rec = rec.Repeat(*repeat)
		w.Duration = rec.Duration
	}
	// Annotation always runs unthrottled; the thermal model applies to the
	// measured replay only.
	db, err := loadDB(w, rec, *dbPath)
	if err != nil {
		fatal(err)
	}
	if *trip <= 0 && (*clear > 0 || *minCap != 5) {
		fatal(fmt.Errorf("-clear/-mincap have no effect without -trip: set a trip temperature to enable the thermal model"))
	}
	if *trip > 0 {
		cfg := thermal.PhoneConfig(len(spec.Clusters), *trip, *minCap)
		if *clear > 0 {
			for i := range cfg.Zones {
				cfg.Zones[i].Throttle.ClearC = *clear
			}
		}
		if err := cfg.Validate(len(spec.Clusters)); err != nil {
			fatal(err)
		}
		w.Profile.Thermal = cfg
		w.Profile.ThermalPower = socModel
	}

	// Config names (governor names and fixed-frequency labels) refer to the
	// big/Krait ladder — the last cluster of either spec.
	bigTbl := spec.Clusters[len(spec.Clusters)-1].Table
	var cfg *experiment.Config
	for _, c := range experiment.AllConfigs(bigTbl) {
		if c.Name == *config {
			c := c
			cfg = &c
			break
		}
	}
	if cfg == nil {
		fatal(fmt.Errorf("unknown config %q (use a governor name or an OPP label such as %q)",
			*config, bigTbl[5].Label()))
	}
	// Fixed configs pin each cluster at the lowest OPP at or above the
	// labelled frequency on its own ladder (cpufreq RELATION_L, handled by
	// Config.Governors).
	govs, err := cfg.Governors(w.Profile)
	if err != nil {
		fatal(err)
	}

	gestures := match.Gestures(rec.Events)
	art := workload.ReplayMulti(w, rec, govs, cfg.Name, *seed, true)
	profile, err := match.Match(art.Video, db, gestures, cfg.Name, match.Options{Strict: true})
	if err != nil {
		fatal(err)
	}
	energy, err := socModel.Energy(art.BusyByCluster)
	if err != nil {
		fatal(err)
	}
	irritation := core.Irritation(profile, db.Thresholds())

	fmt.Printf("workload %s, config %s\n", w.Name, cfg.Name)
	fmt.Printf("lags: %d actual, %d spurious\n", len(profile.Actual()), profile.SpuriousCount())
	var total sim.Duration
	for _, d := range profile.Durations() {
		total += d
	}
	fmt.Printf("total lag time: %s\n", total)
	fmt.Printf("user irritation (HCI thresholds): %s\n", irritation)
	fmt.Printf("dynamic energy: %.2f J\n", energy)
	if len(art.Clusters) > 1 || *trip > 0 || *idle {
		fmt.Println()
		if err := report.ClusterSummary(os.Stdout, art, socModel); err != nil {
			fatal(err)
		}
	}
	if *trip > 0 {
		for _, ct := range art.Clusters {
			above := ct.Temp.TimeAbove(*trip, sim.Time(art.Window))
			fmt.Printf("time above trip (%.0f°C), %s: %s\n", *trip, ct.Name, above)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(profile); err != nil {
			fatal(err)
		}
		fmt.Printf("lag profile -> %s\n", *out)
	}
}

func loadTrace(w *workload.Workload, path string) (*workload.Recording, error) {
	if path == "" {
		rec, _, err := w.Record(1)
		return rec, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := evdev.UnmarshalGetevent(f)
	if err != nil {
		return nil, err
	}
	return &workload.Recording{Workload: w.Name, Duration: w.Duration, Events: events}, nil
}

func loadDB(w *workload.Workload, rec *workload.Recording, path string) (*annotate.DB, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return annotate.Load(f)
	}
	// Build on the fly for convenience.
	gestures := match.Gestures(rec.Events)
	art := workload.ReplayMulti(w, rec, workload.StockGovernors(w.Profile), "annotation", 0xA11, true)
	return annotate.Build(w.Name, art.Video, gestures, art.Truths, annotate.BuildOptions{MinStill: 1})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qoereplay:", err)
	os.Exit(1)
}
