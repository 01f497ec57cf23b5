// Governorstudy compares the three standard Android frequency governors on
// the Logo Quiz workload (the paper's dataset 02, used for Figs. 12 and 13),
// reporting user irritation and oracle-normalised energy.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/soc"
	"repro/internal/workload"
)

func main() {
	res, err := experiment.RunMatrix(workload.Dataset02(), soc.Dragonboard(), experiment.Options{
		Reps: 2,
		Seed: 1,
		Progress: func(msg string) {
			fmt.Fprintln(os.Stderr, msg)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	report.Figure12(os.Stdout, res)
	fmt.Println()
	report.Figure13(os.Stdout, res)

	fmt.Println()
	for _, g := range experiment.GovernorNames {
		fmt.Printf("%-14s energy %.2fx oracle, irritation %v\n",
			g, res.NormEnergy(g), res.MeanIrritation(g))
	}
	fmt.Printf("%-14s energy 1.00x oracle, irritation 0s (by construction)\n", "oracle")
}
