// Command perfbench is the repository's benchmark. It drives three
// workloads through the entry points users hit — experiment.RunMatrix (the
// paper's study), experiment.RunPopulation (a big.LITTLE fleet) and an
// in-process qoed driven by serve.Client (an open-loop job mix) — checks
// every simulated output against committed digests, and prints the
// end-to-end metrics. With -trace 1 it instead re-drives a run's requests
// through the layers' public functions and prints the per-layer split.
//
//	perfbench -workload paper-study|fleet-biglittle|serve-mix -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (name -> value, unit). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart anchors setup_s: set-up runs from process start to the first
// timed request.
var processStart = time.Now()

// buildDir is where the benchmark keeps what it writes: its binary, the Go
// build cache, serve-mix journals and span dumps. It is relative to the
// checkout root the benchmark runs from.
const buildDir = ".bench_build"

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// outcome is what one run measured.
type outcome struct {
	attempted, failed int
	errs              []string  // failures, printed
	setup             []float64 // seconds per set-up
	latency           []float64 // seconds per timed request, +Inf when failed
	simS              float64   // simulated seconds the timed requests covered
	window            float64   // wall seconds of the timed window
	offered           bool      // the offered load, not the machine's speed, sets simS/window
	ref               []float64 // reference-task timings around the window, seconds
	heap              []float64 // per-interval peak heap, MB
	heapTop           float64   // highest heap sample of the window, MB
	notes             []string  // extra lines for the human-readable report
	layers            *layerTable
	tracer            *tracer
}

func (o *outcome) fail(msg string) { o.errs = append(o.errs, msg) }

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "paper-study, fleet-biglittle or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 35, "length of the timed window in seconds")
	traceOn := flag.Int("trace", 0, "1 = traced run: per-layer split instead of end-to-end metrics")
	rate := flag.Float64("serve-rate", 0, "serve-mix arrival rate in jobs/s")
	spansPath := flag.String("spans", "", "span dump of a traced run (default "+buildDir+"/spans-<workload>-<seed>.ndjson)")
	gen := flag.String("gen-golden", "", "compute every slot's expected digest into this file and exit")
	reference := flag.Int("reference", 0, "time the reference task on this many goroutines once per line read from stdin (the benchmark's own child process)")
	flag.Parse()

	if *reference > 0 {
		if err := serveReference(*reference, os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *gen != "" {
		if err := genGolden(*gen); err != nil {
			fatal(err)
		}
		return
	}
	g, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	workers := runtime.NumCPU()
	window := time.Duration(*seconds) * time.Second
	traced := *traceOn == 1

	var o *outcome
	switch *wl {
	case "paper-study", "fleet-biglittle":
		cl := paperStudy(*seed, workers, g)
		if *wl == "fleet-biglittle" {
			cl = fleetBigLittle(*seed, workers, g)
		}
		if traced {
			o = runClosedTraced(cl, workers)
		} else if o, err = runClosed(cl, window, setups, workers); err != nil {
			fatal(err)
		}
	case "serve-mix":
		if *rate <= 0 {
			fatal(fmt.Errorf("serve-mix needs -serve-rate > 0"))
		}
		o, err = runServe(*seed, *rate, window, workers, g, traced)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown workload %q (paper-study, fleet-biglittle or serve-mix)", *wl))
	}

	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	if traced {
		path := *spansPath
		if path == "" {
			path = filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.ndjson", *wl, *seed))
		}
		if err := o.tracer.dump(path); err != nil {
			fatal(err)
		}
		fmt.Printf("spans: %s\n", path)
		o.layers.print(os.Stdout)
		for _, lm := range layerMetrics {
			if lm.JSON {
				res.Metrics[lm.Name] = metric{o.layers.value(lm.Name), lm.Unit}
			}
		}
	} else {
		endToEnd(o, res.Metrics)
	}
	for _, e := range o.errs {
		fmt.Printf("FAIL %s\n", e)
	}
	res.Correct = len(o.errs) == 0
	if res.Attempted < 1 {
		fatal(fmt.Errorf("no request attempted"))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// endToEnd derives the end-to-end metrics and prints them with their sample
// counts. Times, and a throughput the machine's speed sets, are scaled to the
// reference speed (calib.go); the raw value is printed beside each.
func endToEnd(o *outcome, out map[string]metric) {
	ref := median(o.ref)
	scale := refNominal.Seconds() / ref
	fmt.Printf("reference task: median %.2f ms over %d timings, nominal %.0f ms: times scaled by %.4f\n",
		ref*1e3, len(o.ref), refNominal.Seconds()*1e3, scale)
	p90, beyond, ok := tail(o.latency, 0.9)
	if !ok {
		o.fail(fmt.Sprintf("latency_s_p90 has %d samples beyond it, want >= %d", beyond, minBeyond))
	}
	rateScale := 1 / scale
	if o.offered {
		rateScale = 1
	}
	rows := []struct {
		name, unit string
		raw, scale float64
		n          string
	}{
		{"setup_s", "s", median(o.setup), scale, fmt.Sprintf("median of %d set-ups", len(o.setup))},
		{"latency_s_p50", "s", median(o.latency), scale, fmt.Sprintf("n=%d", len(o.latency))},
		{"latency_s_p90", "s", p90, scale, fmt.Sprintf("n=%d, %d beyond", len(o.latency), beyond)},
		{"sim_s_per_s", "sim-s/wall-s", o.simS / o.window, rateScale, fmt.Sprintf("%.0f sim-s in %.2f s", o.simS, o.window)},
		{"heap_peak_mb", "MB", median(o.heap), 1, fmt.Sprintf("median of %d per-second peaks; window max %.3f", len(o.heap), o.heapTop)},
	}
	for _, r := range rows {
		v := r.raw * r.scale
		if math.IsInf(v, 0) || math.IsNaN(v) {
			o.fail(fmt.Sprintf("%s is %v", r.name, v))
			v = -1
		}
		out[r.name] = metric{v, r.unit}
		fmt.Printf("%-14s %14.6f %-13s raw %14.6f  %s\n", r.name, v, r.unit, r.raw, r.n)
	}
	fmt.Printf("%-14s %14.6f %-13s %d of %d requests failed (not in the result line: 0 on a correct run)\n",
		"fail_frac", float64(o.failed)/float64(max(o.attempted, 1)), "fraction", o.failed, o.attempted)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
