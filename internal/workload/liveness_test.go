package workload

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/soc"
)

// TestEveryLagEndsAtEveryOPP is the liveness rule every replay relies on:
// under any fixed frequency, however low, each built-in workload completes
// every lag inside its recording's run window, so the matcher finds every
// lag's ending image. It replays each workload (record seed 1, replay seed
// 2) pinned at every OPP of the Dragonboard core and of each big.LITTLE
// cluster alone, the single-cluster boots the oracle's candidate runs use.
func TestEveryLagEndsAtEveryOPP(t *testing.T) {
	bl := soc.BigLittle44()
	specs := []soc.Spec{soc.Dragonboard()}
	for _, cs := range bl.Clusters {
		specs = append(specs, soc.Spec{Name: bl.Name + "-" + cs.Name + "-only", Clusters: []soc.ClusterSpec{cs}})
	}
	workloads := append(Datasets(), TwentyFourHour(), Quickstart(), GameSession(), ExportMarathon(), LegacyBench())
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rec, _, err := w.Record(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				wc := *w
				wc.Profile.SoC = spec
				sess := NewReplaySession(&wc, rec)
				tbl := spec.Clusters[0].Table
				for opp := range tbl {
					art := sess.Replay([]governor.Governor{governor.NewFixed(tbl, opp)}, tbl[opp].Label(), 2, false)
					for _, gt := range art.Truths {
						if !gt.Spurious && !gt.Complete {
							t.Errorf("%s at %s: lag %d (%s) still open at the end of the %v run window",
								spec.Name, tbl[opp].Label(), gt.Index, gt.Label, rec.RunWindow())
						}
					}
				}
			}
		})
	}
}
