// Command qoeload is the load harness for qoed: N concurrent clients submit
// sweep jobs against a time budget, each streaming its job's results to
// completion before submitting the next, and the run is summarised as
// throughput (jobs/min), job latency percentiles (p50/p95/p99), queue-wait
// percentiles and error counts. The server's 429 backpressure responses are
// absorbed as retries and reported separately. Submission n sweeps seed
// -seed + n − 1, so qoed records, annotates and replays every job instead of
// answering a repeated spec from a finished job's log.
//
// Passing a comma-separated -soc list ("dragonboard,biglittle") makes the
// harness cycle a job mix round-robin instead of replaying one spec, and the
// report breaks completed jobs down per spec. -json emits the report as one
// JSON object (durations in milliseconds) for downstream tooling.
//
// -chaos mixes deterministic client-side faults into the load: every cutth
// submission's result stream is cut mid-record (the client's ?from= resume
// must recover it) and every cancelth submission is cancelled right after
// submit. The report then carries recovered-vs-failed counts for the
// injected faults, in both the text and -json forms.
//
// -units turns every submission into a population job of that many Monte
// Carlo device units; -pop sets the perturbation model ("default" or
// "cn=0.05,active=0.05,ambient=15:35,case=0.1,aged=0.25,steps=3") and -trip
// the thermal environment (0 off, < 0 record-only zones, 40..150 trip °C).
// Population jobs stream one "pop" record per unit × config × rep and a
// terminal percentile summary; see docs/population.md.
//
// Usage:
//
//	qoeload [-url http://127.0.0.1:8090] [-clients 4] [-budget 30s] \
//	        [-workload quickstart] [-soc dragonboard[,biglittle]] [-idle] \
//	        [-configs "0.96 GHz,2.15 GHz,ondemand"] [-reps 1] [-seed 1] \
//	        [-timeout 0] [-units 0] [-pop default] [-trip 0] \
//	        [-chaos [cut=N][,cancel=M]] [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/population"
	"repro/internal/serve"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8090", "qoed base URL")
	clients := flag.Int("clients", 4, "concurrent clients")
	budget := flag.Duration("budget", 30*time.Second, "submission time budget")
	workloadName := flag.String("workload", "quickstart", "workload to sweep")
	socName := flag.String("soc", "dragonboard", "SoC spec(s): dragonboard or biglittle; a comma-separated list is cycled as a mix")
	idle := flag.Bool("idle", false, "install the default C-state ladder")
	configs := flag.String("configs", "", "comma-separated config subset (empty = full matrix)")
	reps := flag.Int("reps", 1, "repetitions per configuration")
	seed := flag.Uint64("seed", 1, "the first submission's master seed; submission n sweeps seed + n - 1")
	timeout := flag.Duration("timeout", 0, "per-job execution deadline (0 = none)")
	units := flag.Int("units", 0, "population units per job (0 = plain matrix jobs)")
	pop := flag.String("pop", "", `population model: "default" or "cn=..,active=..,ambient=lo:hi,case=..,aged=..,steps=N" (needs -units)`)
	trip := flag.Float64("trip", 0, "population thermal environment: 0 off, < 0 record-only zones, 40..150 trip °C")
	chaos := flag.String("chaos", "", `client-side fault mix, e.g. "cut=3,cancel=5" (cut every Nth stream, cancel every Mth job)`)
	asJSON := flag.Bool("json", false, "emit the report as JSON (durations in ms)")
	flag.Parse()

	chaosMix, err := parseChaos(*chaos)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoeload: %v\n", err)
		os.Exit(1)
	}

	base := serve.JobSpec{
		Workload:     *workloadName,
		Idle:         *idle,
		Reps:         *reps,
		Seed:         *seed,
		TimeoutMS:    timeout.Milliseconds(),
		Units:        *units,
		ThermalTripC: *trip,
	}
	if *pop != "" {
		if *units <= 0 {
			fmt.Fprintln(os.Stderr, "qoeload: -pop needs -units > 0")
			os.Exit(1)
		}
		model, err := population.ParseModel(*pop)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoeload: %v\n", err)
			os.Exit(1)
		}
		base.Population = &model
	}
	for _, c := range strings.Split(*configs, ",") {
		if c = strings.TrimSpace(c); c != "" {
			base.Configs = append(base.Configs, c)
		}
	}
	var mix []serve.JobSpec
	for _, soc := range strings.Split(*socName, ",") {
		if soc = strings.TrimSpace(soc); soc != "" {
			spec := base
			spec.SoC = soc
			mix = append(mix, spec)
		}
	}
	if len(mix) == 0 {
		fmt.Fprintln(os.Stderr, "qoeload: -soc names no spec")
		os.Exit(1)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	rep, err := serve.RunHarness(ctx, serve.HarnessOptions{
		BaseURL: *url,
		Clients: *clients,
		Budget:  *budget,
		Jobs:    mix,
		Chaos:   chaosMix,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoeload: %v\n", err)
		os.Exit(1)
	}
	if *asJSON {
		out, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoeload: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	} else {
		fmt.Println(rep)
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// parseChaos parses the -chaos mix: a comma-separated list of cut=N and
// cancel=M. Empty means no chaos.
func parseChaos(s string) (serve.HarnessChaos, error) {
	var c serve.HarnessChaos
	if s == "" {
		return c, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		n := 0
		if ok {
			if _, err := fmt.Sscanf(val, "%d", &n); err != nil || n < 1 {
				ok = false
			}
		}
		if !ok {
			return c, fmt.Errorf("bad -chaos entry %q (want cut=N or cancel=M, N >= 1)", part)
		}
		switch key {
		case "cut":
			c.CutEvery = n
		case "cancel":
			c.CancelEvery = n
		default:
			return c, fmt.Errorf("unknown -chaos fault %q (want cut or cancel)", key)
		}
	}
	return c, nil
}
