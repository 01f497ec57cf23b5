package report

import (
	"fmt"
	"io"

	"repro/internal/experiment"
	"repro/internal/sim"
)

// ThermalSummary renders a sustained thermal sweep: for every configuration,
// the record-only (unthrottled) arm against the throttled arm — user
// irritation, dynamic energy, per-cluster peak and steady temperature, time
// spent throttled and the cap-down/cap-up event counts. This is the
// QoE-vs-skin-temperature trade-off table: a governor whose irritation rises
// while its peak temperature falls is paying QoE for thermals.
func ThermalSummary(w io.Writer, res *experiment.SustainedResult) error {
	if len(res.Runs) == 0 {
		return fmt.Errorf("report: sustained result has no runs")
	}
	nClusters := len(res.Runs[0].Clusters)
	fmt.Fprintf(w, "SUSTAINED THERMAL SWEEP, %s x%d back-to-back (window %.0fs, %d reps/cell)\n",
		res.Workload, res.Repeats, res.Window.Seconds(), len(res.RunsFor(res.Configs[0], false)))
	fmt.Fprintf(w, "%-14s %-12s %10s %10s", "config", "arm", "irrit (s)", "energy (J)")
	for c := 0; c < nClusters; c++ {
		name := res.Runs[0].Clusters[c].Name
		fmt.Fprintf(w, " %9s", name+" pk°C")
		fmt.Fprintf(w, " %9s", name+" ss°C")
	}
	fmt.Fprintf(w, " %9s %6s %6s\n", "thr time", "downs", "ups")

	for _, cfg := range res.Configs {
		for _, throttled := range []bool{false, true} {
			runs := res.RunsFor(cfg, throttled)
			if len(runs) == 0 {
				continue
			}
			arm := "record-only"
			if throttled {
				arm = "throttled"
			}
			var energy, thrS float64
			downs, ups := 0, 0
			for _, r := range runs {
				energy += r.EnergyJ
				for _, ct := range r.Clusters {
					thrS += ct.Throttle.ThrottledTime(sim.Time(res.Window)).Seconds()
					downs += ct.Throttle.CapDowns()
					ups += ct.Throttle.CapUps()
				}
			}
			n := float64(len(runs))
			fmt.Fprintf(w, "%-14s %-12s %10.2f %10.2f",
				cfg, arm, res.MeanIrritationS(cfg, throttled), energy/n)
			for c := 0; c < nClusters; c++ {
				var steady float64
				for _, r := range runs {
					// Steady state over the active workload only — the
					// window's cooldown tail would deflate it.
					steady += r.Clusters[c].Temp.SteadyC(sim.Time(res.Duration), 0.2)
				}
				fmt.Fprintf(w, " %9.1f %9.1f", res.MeanPeakC(cfg, throttled, c), steady/n)
			}
			fmt.Fprintf(w, " %8.1fs %6.1f %6.1f\n", thrS/n, float64(downs)/n, float64(ups)/n)
		}
		// The QoE delta the acceptance row asks for: throttled minus
		// record-only irritation, and the biggest per-cluster peak drop.
		dIrr := res.MeanIrritationS(cfg, true) - res.MeanIrritationS(cfg, false)
		var dPeak float64
		for c := 0; c < nClusters; c++ {
			if d := res.MeanPeakC(cfg, false, c) - res.MeanPeakC(cfg, true, c); d > dPeak {
				dPeak = d
			}
		}
		fmt.Fprintf(w, "%-14s %-12s irritation %+.2fs, peak temp %+.1f°C under throttling\n",
			"", "Δ", dIrr, -dPeak)
	}
	return nil
}
