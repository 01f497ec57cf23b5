package experiment_test

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/soc"
	"repro/internal/workload"
)

// TestMatrixOrderingDeterministicAcrossWorkers pins the result-ordering
// contract through the pooled scheduler: whatever the worker interleaving,
// runs land in (config, rep) order, candidates in (cluster, OPP) order, and
// the whole summary is invariant to the pool width — one worker or eight
// must produce bit-identical sweeps.
func TestMatrixOrderingDeterministicAcrossWorkers(t *testing.T) {
	sel := []string{"2.15 GHz", "interactive/ondemand"}
	sweep := func(workers int) (*experiment.MatrixResult, string) {
		res, err := experiment.RunMatrix(workload.Quickstart(), soc.BigLittle44(),
			experiment.Options{Reps: 2, Seed: 3, Configs: sel, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(report.NewMatrixSummary(res))
		if err != nil {
			t.Fatal(err)
		}
		return res, string(raw)
	}
	res, wide := sweep(8)

	for _, cfg := range res.ConfigNames() {
		runs := res.Runs[cfg]
		if len(runs) != 2 {
			t.Fatalf("config %q has %d runs, want 2", cfg, len(runs))
		}
		for i, r := range runs {
			if r.Rep != i {
				t.Errorf("config %q slot %d holds rep %d; reps must land in order", cfg, i, r.Rep)
			}
		}
	}
	for rep, cands := range res.Candidates {
		for i := 1; i < len(cands); i++ {
			a, b := cands[i-1], cands[i]
			if a.Cluster > b.Cluster || (a.Cluster == b.Cluster && a.OPPIndex >= b.OPPIndex) {
				t.Errorf("rep %d candidates out of (cluster, OPP) order at %d: (%d,%d) then (%d,%d)",
					rep, i, a.Cluster, a.OPPIndex, b.Cluster, b.OPPIndex)
			}
		}
	}

	if _, narrow := sweep(1); narrow != wide {
		t.Errorf("summary depends on pool width:\n1 worker:  %s\n8 workers: %s", narrow, wide)
	}
}

// TestPoolReuseAcrossSweepsBitIdentical runs the same sweep twice on one
// long-lived pool, for every sweep kind: the second sweep rides on recycled
// scratch and, unless its kind retires its sessions, entirely on warmed
// sessions, and must reproduce the first — run on the fresh pool — bit for
// bit.
func TestPoolReuseAcrossSweepsBitIdentical(t *testing.T) {
	for _, kind := range sweepKinds {
		t.Run(kind.name, func(t *testing.T) {
			pool := experiment.NewPool(2)
			sweep := func() string {
				out, err := kind.run(experiment.Options{Reps: 2, Seed: 11, Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			forks := func() int {
				n := 0
				for _, f := range pool.Forks() {
					n += f
				}
				return n
			}
			first := sweep()
			forksAfterFirst := forks()
			if second := sweep(); second != first {
				t.Errorf("pool reuse perturbed the sweep:\nfirst:  %s\nsecond: %s", first, second)
			}
			if kind.retires {
				if warm := pool.WarmSessions(); warm != 0 {
					t.Errorf("pool holds %d warm sessions after two sweeps that retire theirs", warm)
				}
				return
			}
			if pool.WarmSessions() == 0 {
				t.Error("no warm sessions on the pool after two sweeps")
			}
			if forks() <= forksAfterFirst {
				t.Errorf("second sweep recorded no forks (%d -> %d); sessions were not reused",
					forksAfterFirst, forks())
			}
		})
	}
}

// TestMatrixContextCancellation cancels a sweep of every kind mid-flight via
// OnRun and verifies it surfaces context.Canceled — and that the pool then
// runs a complete sweep bit-identical to one on a fresh pool.
func TestMatrixContextCancellation(t *testing.T) {
	for _, kind := range sweepKinds {
		t.Run(kind.name, func(t *testing.T) {
			pool := experiment.NewPool(2)
			ctx, cancel := context.WithCancel(context.Background())
			var seen atomic.Int64
			_, err := kind.run(experiment.Options{Reps: 3, Seed: 5, Pool: pool, Context: ctx,
				OnRun: func(experiment.RunUpdate) {
					if seen.Add(1) == 1 {
						cancel()
					}
				}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
			}

			got, err := kind.run(experiment.Options{Reps: 1, Seed: 5, Pool: pool})
			if err != nil {
				t.Fatalf("pool unusable after cancelled sweep: %v", err)
			}
			want, err := kind.run(experiment.Options{Reps: 1, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("sweep after cancellation diverged from a fresh pool:\nwant %s\ngot  %s", want, got)
			}
		})
	}
}

// TestMatrixPreCancelledContext returns immediately without running
// anything, for every sweep kind.
func TestMatrixPreCancelledContext(t *testing.T) {
	for _, kind := range sweepKinds {
		t.Run(kind.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var ran atomic.Int64
			_, err := kind.run(experiment.Options{Reps: 1, Context: ctx,
				OnRun: func(experiment.RunUpdate) { ran.Add(1) }})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
			if ran.Load() != 0 {
				t.Errorf("%d runs executed under a pre-cancelled context", ran.Load())
			}
		})
	}
}

// TestValidateSelection pins the selection contract used by the serve layer.
func TestValidateSelection(t *testing.T) {
	drag, bl := soc.Dragonboard(), soc.BigLittle44()
	if err := experiment.ValidateSelection(drag, nil); err != nil {
		t.Errorf("empty selection: %v", err)
	}
	if err := experiment.ValidateSelection(drag, []string{"0.96 GHz", "ondemand"}); err != nil {
		t.Errorf("valid selection: %v", err)
	}
	if err := experiment.ValidateSelection(drag, []string{"3.00 GHz"}); err == nil {
		t.Error("unknown config accepted")
	}
	if err := experiment.ValidateSelection(drag, []string{"ondemand"}); err == nil {
		t.Error("governor-only selection accepted on single-cluster spec")
	}
	if err := experiment.ValidateSelection(bl, []string{"interactive/ondemand"}); err != nil {
		t.Errorf("governor-only selection on multi-cluster spec: %v", err)
	}
}
