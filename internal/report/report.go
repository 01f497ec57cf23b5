// Package report renders the paper's tables and figures as text: Table I,
// the Fig. 3 frequency overlay, the Fig. 5 getevent excerpt, the Fig. 7
// suggester illustration, and Figs. 10–14 of the evaluation. Each renderer
// consumes experiment results and prints the same rows/series the paper
// plots, so a run of cmd/qoebench regenerates the entire evaluation section.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// bar renders a horizontal ASCII bar scaled to width.
func bar(value, max float64, width int) string {
	if max <= 0 || value < 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// TableI prints the workload overview (paper Table I) plus recorded input
// statistics.
func TableI(w io.Writer, results []*experiment.MatrixResult) {
	fmt.Fprintln(w, "TABLE I: MAIN ACTIVITIES THE USERS WERE EXECUTING IN EACH WORKLOAD")
	fmt.Fprintf(w, "%-10s  %-55s %8s %8s\n", "Dataset", "Description", "Inputs", "Lags")
	for _, res := range results {
		taps, swipes, actual, spurious := res.InputClassification()
		fmt.Fprintf(w, "%-10s  %-55s %8d %8d\n",
			strings.TrimPrefix(res.Workload.Name, "dataset"),
			res.Workload.Description, taps+swipes, actual)
		_ = spurious
	}
}

// Figure3 prints the Ondemand-vs-oracle frequency snapshot around one
// interaction (paper Fig. 3) on a single-cluster sweep. It selects a window
// centred on the lag closest to wantT in the first repetition's traces.
func Figure3(w io.Writer, res *experiment.MatrixResult, wantT sim.Time) {
	ond := res.Runs["ondemand"][0]
	tbl := res.Model.Cluster(0).Table

	// Pick the non-spurious lag whose begin is closest to wantT.
	var pick core.Lag
	found := false
	for _, lag := range ond.Profile.Lags {
		if lag.Spurious {
			continue
		}
		if !found || abs64(int64(lag.Begin-wantT)) < abs64(int64(pick.Begin-wantT)) {
			pick = lag
			found = true
		}
	}
	if !found {
		fmt.Fprintln(w, "figure 3: no lags available")
		return
	}
	t0 := pick.Begin.Add(-2 * sim.Second)
	if t0 < 0 {
		t0 = 0
	}
	t1 := pick.Begin.Add(4 * sim.Second)
	step := 100 * sim.Millisecond

	fmt.Fprintf(w, "FIG. 3: frequency snapshot, %s, input received at %.2fs (A), serviced at %.2fs (B)\n",
		res.Workload.Name, pick.Begin.Seconds(), pick.End.Seconds())
	fmt.Fprintf(w, "%8s  %-10s %-10s\n", "t (s)", "ondemand", "oracle")
	ondSeries := ond.FreqTrace.Series(t0, t1, step, tbl)
	orcSeries := oracleTrace(res.Oracles[0]).Series(t0, t1, step, tbl)
	for i := range ondSeries {
		ts := t0.Add(sim.Duration(i) * step)
		marker := ""
		if ts <= pick.Begin && pick.Begin < ts.Add(step) {
			marker = "  <- A input received"
		}
		if ts <= pick.End && pick.End < ts.Add(step) {
			marker = "  <- B input serviced"
		}
		fmt.Fprintf(w, "%8.2f  %-10.2f %-10.2f |%-22s %-22s|%s\n",
			ts.Seconds(), ondSeries[i], orcSeries[i],
			bar(ondSeries[i], 2.2, 22), bar(orcSeries[i], 2.2, 22), marker)
	}
}

// oracleTrace composes an oracle's frequency trace for the Fig. 3 overlay:
// the base OPP everywhere, each lag's chosen OPP inside it (lag begins are
// shared across runs by replay construction; Append drops non-transitions).
func oracleTrace(o *oracle.ClusterOracle) *trace.FreqTrace {
	tr := &trace.FreqTrace{}
	tr.Append(0, o.Base.OPPIndex)
	for _, lag := range o.Profile.Lags {
		if !lag.Spurious {
			tr.Append(lag.Begin, o.PerLag[lag.Index].OPPIndex)
			tr.Append(lag.End, o.Base.OPPIndex)
		}
	}
	return tr
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Figure10 prints the input classification per dataset (paper Fig. 10):
// taps/swipes on the left, actual/spurious lags on the right.
func Figure10(w io.Writer, results []*experiment.MatrixResult, extra map[string][4]int) {
	fmt.Fprintln(w, "FIG. 10: INPUT CLASSIFICATION PER WORKLOAD")
	fmt.Fprintf(w, "%-10s %6s %7s %8s %9s   %s\n", "Dataset", "Taps", "Swipes", "Actual", "Spurious", "lag bar")
	var sumTaps, sumSwipes, sumActual, sumSpurious, n int
	row := func(name string, taps, swipes, actual, spurious int) {
		fmt.Fprintf(w, "%-10s %6d %7d %8d %9d   %s\n", name, taps, swipes, actual, spurious,
			bar(float64(actual), 250, 40)+strings.Repeat("-", clampInt(spurious/2, 0, 10)))
	}
	for _, res := range results {
		taps, swipes, actual, spurious := res.InputClassification()
		row(strings.TrimPrefix(res.Workload.Name, "dataset"), taps, swipes, actual, spurious)
		sumTaps += taps
		sumSwipes += swipes
		sumActual += actual
		sumSpurious += spurious
		n++
	}
	if n > 0 {
		row("average", sumTaps/n, sumSwipes/n, sumActual/n, sumSpurious/n)
	}
	// Names sorted for deterministic output of extra rows (e.g. 24hour).
	var names []string
	for name := range extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := extra[name]
		row(name, c[0], c[1], c[2], c[3])
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Figure11 prints the lag-duration distribution per configuration (paper
// Fig. 11): box statistics per configuration and a kernel density estimate
// for the ondemand governor.
func Figure11(w io.Writer, res *experiment.MatrixResult) {
	fmt.Fprintf(w, "FIG. 11: LAG DURATIONS PER CONFIGURATION, %s (ms)\n", res.Workload.Name)
	fmt.Fprintf(w, "%-14s %5s %7s %7s %7s %7s %7s %8s %7s\n",
		"config", "n", "q1", "median", "q3", "whisLo", "whisHi", "fliers", "max")
	for _, name := range res.ConfigNames() {
		b := stats.NewBox(res.PooledDurationsMS(name))
		fmt.Fprintf(w, "%-14s %5d %7.0f %7.0f %7.0f %7.0f %7.0f %8d %7.0f\n",
			name, b.N, b.Q1, b.Median, b.Q3, b.WhiskerLo, b.WhiskerHi, len(b.Fliers), b.Max)
	}

	// The single kernel plot: ondemand lag-length density (paper: "most of
	// the lags are rather short", mean around 500 ms).
	sample := res.PooledDurationsMS("ondemand")
	if len(sample) == 0 {
		return
	}
	b := stats.NewBox(sample)
	grid := stats.Grid(0, float64(b.Max*1.05)+1, 25) // no fused multiply-add
	dens := stats.KDE(sample, grid)
	maxD := 0.0
	for _, d := range dens {
		if d > maxD {
			maxD = d
		}
	}
	fmt.Fprintf(w, "\nkernel density, ondemand (mean %.0f ms):\n", b.Mean)
	for i, g := range grid {
		fmt.Fprintf(w, "%7.0f ms |%s\n", g, bar(dens[i], maxD, 50))
	}
}

// Figure12 prints user irritation and oracle-normalised energy for every
// configuration of one dataset (paper Fig. 12).
func Figure12(w io.Writer, res *experiment.MatrixResult) {
	fmt.Fprintf(w, "FIG. 12: USER IRRITATION AND ENERGY, %s\n", res.Workload.Name)
	fmt.Fprintf(w, "%-14s %12s   %-30s %8s  %s\n", "config", "irritation", "", "E/oracle", "")
	names := append(res.ConfigNames(), "oracle")
	maxIrr := 0.0
	for _, name := range names {
		if v := res.MeanIrritation(name).Seconds(); v > maxIrr {
			maxIrr = v
		}
	}
	for _, name := range names {
		var irr, norm float64
		if name == "oracle" {
			irr, norm = 0, 1
		} else {
			irr = res.MeanIrritation(name).Seconds()
			norm = res.NormEnergy(name)
		}
		fmt.Fprintf(w, "%-14s %11.2fs   %-30s %8.2f  %s\n",
			name, irr, bar(irr, maxIrr, 30), norm, bar(norm, 2.0, 30))
	}
}

// Figure13 prints the energy-vs-irritation scatter for one dataset (paper
// Fig. 13): fixed frequencies, governors, and the oracle.
func Figure13(w io.Writer, res *experiment.MatrixResult) {
	fmt.Fprintf(w, "FIG. 13: ENERGY VS IRRITATION SCATTER, %s\n", res.Workload.Name)
	fmt.Fprintf(w, "%-14s %6s %12s %14s\n", "config", "kind", "energy (J)", "irritation (s)")
	for _, cfg := range res.Configs {
		kind := "fixed"
		if cfg.OPPIndex < 0 {
			kind = "gov"
		}
		fmt.Fprintf(w, "%-14s %6s %12.2f %14.2f\n",
			cfg.Name, kind, res.MeanEnergyJ(cfg.Name), res.MeanIrritation(cfg.Name).Seconds())
	}
	fmt.Fprintf(w, "%-14s %6s %12.2f %14.2f\n", "oracle", "oracle", res.OracleEnergyJ, 0.0)
}

// Figure14 prints the cross-dataset governor summary (paper Fig. 14):
// oracle-normalised energy (top) and user irritation (bottom) per governor.
func Figure14(w io.Writer, results []*experiment.MatrixResult) {
	fmt.Fprintln(w, "FIG. 14: GOVERNOR SUMMARY ACROSS DATASETS")
	fmt.Fprintf(w, "\nenergy normalised to oracle:\n%-10s", "dataset")
	for _, g := range experiment.GovernorNames {
		fmt.Fprintf(w, " %12s", g)
	}
	fmt.Fprintln(w)
	avg := map[string]float64{}
	for _, res := range results {
		fmt.Fprintf(w, "%-10s", strings.TrimPrefix(res.Workload.Name, "dataset"))
		for _, g := range experiment.GovernorNames {
			v := res.NormEnergy(g)
			avg[g] += v
			fmt.Fprintf(w, " %12.2f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "avg")
	for _, g := range experiment.GovernorNames {
		fmt.Fprintf(w, " %12.2f", avg[g]/float64(len(results)))
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "\nuser irritation in seconds:\n%-10s", "dataset")
	for _, g := range experiment.GovernorNames {
		fmt.Fprintf(w, " %12s", g)
	}
	fmt.Fprintln(w)
	avgIrr := map[string]float64{}
	for _, res := range results {
		fmt.Fprintf(w, "%-10s", strings.TrimPrefix(res.Workload.Name, "dataset"))
		for _, g := range experiment.GovernorNames {
			v := res.MeanIrritation(g).Seconds()
			avgIrr[g] += v
			fmt.Fprintf(w, " %12.2f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "avg")
	for _, g := range experiment.GovernorNames {
		fmt.Fprintf(w, " %12.2f", avgIrr[g]/float64(len(results)))
	}
	fmt.Fprintln(w)
}

// Headlines prints the paper's headline claims computed from the measured
// results: possible energy savings versus the best standard governor at
// equal-or-better user experience, and versus the maximum fixed frequency
// with indistinguishable performance.
func Headlines(w io.Writer, results []*experiment.MatrixResult) {
	fmt.Fprintln(w, "HEADLINE RESULTS")
	bestVsGovernor, bestVsMax := 0.0, 0.0
	var atGov, atMax string
	for _, res := range results {
		tbl := res.Model.Cluster(0).Table
		maxLabel := tbl[len(tbl)-1].Label()
		// The oracle never irritates, so against the stock Android governor
		// (interactive) its saving is 1 - oracle/interactive.
		if v := 1 - 1/res.NormEnergy("interactive"); v > bestVsGovernor {
			bestVsGovernor, atGov = v, res.Workload.Name
		}
		if v := 1 - 1/res.NormEnergy(maxLabel); v > bestVsMax {
			bestVsMax, atMax = v, res.Workload.Name
		}
	}
	fmt.Fprintf(w, "energy saving of the oracle vs the standard Android governor (interactive),\n")
	fmt.Fprintf(w, "  at zero irritation: up to %.0f%% (%s)   [paper: up to 27%%]\n", bestVsGovernor*100, atGov)
	fmt.Fprintf(w, "energy saving of the oracle vs permanently running at 2.15 GHz,\n")
	fmt.Fprintf(w, "  with indistinguishable performance: %.0f%% (%s)   [paper: 47%%]\n", bestVsMax*100, atMax)

	var consE, interE, ondE, consIrr, interIrr, ondIrr float64
	for _, res := range results {
		consE += res.NormEnergy("conservative")
		interE += res.NormEnergy("interactive")
		ondE += res.NormEnergy("ondemand")
		consIrr += res.MeanIrritation("conservative").Seconds()
		interIrr += res.MeanIrritation("interactive").Seconds()
		ondIrr += res.MeanIrritation("ondemand").Seconds()
	}
	n := float64(len(results))
	fmt.Fprintf(w, "conservative: %.0f%% energy vs oracle, %.1f s avg irritation   [paper: 92%%, ~36 s]\n",
		consE/n*100, consIrr/n)
	fmt.Fprintf(w, "interactive:  %.0f%% energy vs oracle, %.1f s avg irritation   [paper: 122%%, <1 s]\n",
		interE/n*100, interIrr/n)
	fmt.Fprintf(w, "ondemand:     %.0f%% energy vs oracle, %.1f s avg irritation   [paper: 120%%, <1 s]\n",
		ondE/n*100, ondIrr/n)
}
