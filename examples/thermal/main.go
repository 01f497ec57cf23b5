// Thermal runs the sustained-workload thermal study end to end on a 4+4
// big.LITTLE SoC: the Movie Studio export marathon replayed back to back
// under three frequency configurations, each once with record-only thermal
// zones (temperatures traced, no caps) and once with a 30°C trip. It
// demonstrates the request/arbitrate/apply frequency pipeline: governors
// keep requesting their OPP, the per-cluster throttler walks a cap down the
// ladder above trip and back up below clear, and the cluster restores the
// pending request the moment the cap lifts.
//
// The headline result mirrors Bhat et al. (arXiv:1904.09814): every
// configuration that serves the export's QoE — the performance pin and,
// since the per-core load meter fix, the load-based governors too (a
// saturated core now reads 100% load instead of a 25% domain average) —
// heats the package past trip and pays tens of seconds of irritation once
// the throttler binds. QoE and skin temperature are the same budget:
// rankings measured on short cold-package workloads say nothing about
// sustained load.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/experiment"
	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/workload"
)

func main() {
	w := workload.ExportMarathon()
	w.Profile.SoC = soc.BigLittle44()

	cfg := thermal.PhoneConfig(2, 30, 5)
	fmt.Printf("platform %s, trip %.0f°C / clear %.0f°C, cap floor OPP %d\n",
		w.Profile.SoC.Name,
		cfg.Zones[1].Throttle.TripC, cfg.Zones[1].Throttle.ClearC,
		cfg.Zones[1].Throttle.MinCapIdx)

	configs := []experiment.Config{
		{Name: "performance", OPPIndex: -1,
			NewGovernor: func() governor.Governor { return governor.Performance(power.Snapdragon8074()) }},
		{Name: "interactive", OPPIndex: -1,
			NewGovernor: func() governor.Governor { return governor.NewInteractive() }},
		{Name: "ondemand", OPPIndex: -1,
			NewGovernor: func() governor.Governor { return governor.NewOndemand() }},
	}
	res, err := experiment.RunSustained(w, configs, experiment.SustainedOptions{
		Options: experiment.Options{
			Reps:     2,
			Seed:     1,
			Progress: func(msg string) { fmt.Fprintln(os.Stderr, msg) },
		},
		Repeats: 3,
		Thermal: cfg,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	if err := report.ThermalSummary(os.Stdout, res); err != nil {
		log.Fatal(err)
	}

	// A cap-event excerpt: the first throttle episode of the hot config.
	fmt.Println("\nfirst throttle episode (performance, big cluster):")
	hot := res.RunsFor("performance", true)[0]
	events := hot.Clusters[1].Throttle.Events
	for i, e := range events {
		if i >= 8 {
			fmt.Printf("  ... %d more cap changes\n", len(events)-i)
			break
		}
		state := "cap"
		if !e.Throttled {
			state = "lift"
		}
		fmt.Printf("  t=%7.1fs %s -> OPP %d\n", sim.Time(e.At).Sub(0).Seconds(), state, e.CapIndex)
	}
	above := hot.Clusters[1].Temp.TimeAbove(cfg.Zones[1].Throttle.TripC, sim.Time(res.Window))
	fmt.Printf("time above trip: %s of %s\n", above, res.Window)
}
