// Oracleprofile builds the paper's optimal frequency profile for the Gallery
// workload (dataset 01) and shows how it behaves around a single user input,
// reproducing the structure of the paper's Fig. 3 motivating example and the
// per-lag frequency choices of §III-B.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/workload"
)

func main() {
	res, err := experiment.RunMatrix(workload.Dataset01(), soc.Dragonboard(), experiment.Options{Reps: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	tbl := res.Model.Cluster(0).Table

	o := res.Oracles[0]
	fmt.Printf("oracle for %s:\n", res.Workload.Name)
	fmt.Printf("  base frequency outside lags: %s (whole-workload energy optimum)\n",
		tbl[o.Base.OPPIndex].Label())
	fmt.Printf("  irritation: %v (zero by construction)\n", o.Irritation())
	fmt.Printf("  energy: %.2f J vs interactive %.2f J / ondemand %.2f J\n",
		res.OracleEnergyJ, res.MeanEnergyJ("interactive"), res.MeanEnergyJ("ondemand"))

	// Per-lag frequency choices: CPU-bound lags force high frequencies,
	// IO-heavy lags allow low ones.
	counts := map[string]int{}
	for _, ch := range o.PerLag {
		counts[tbl[ch.OPPIndex].Label()]++
	}
	fmt.Println("  per-lag frequency histogram:")
	for i := range tbl {
		label := tbl[i].Label()
		if counts[label] > 0 {
			fmt.Printf("    %-10s %3d lags\n", label, counts[label])
		}
	}

	fmt.Println()
	report.Figure3(os.Stdout, res, sim.Time(265*sim.Second))

	fmt.Printf("\nsavings at zero irritation: %.0f%% vs interactive, %.0f%% vs fixed 2.15 GHz\n",
		(1-1/res.NormEnergy("interactive"))*100,
		(1-1/res.NormEnergy(tbl[len(tbl)-1].Label()))*100)
}
