package experiment_test

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/population"
	"repro/internal/report"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sweepKind is one sweep driver in a small, fast shape: run executes it on
// the given options and returns its canonical JSON, so tests can pin any
// sweep kind bit for bit through the same contract. retires marks a kind
// that releases its warm sessions before it returns (population units), so
// no session outlives the sweep.
type sweepKind struct {
	name    string
	run     func(opts experiment.Options) (string, error)
	retires bool
}

var sweepKinds = []sweepKind{
	{"matrix", func(opts experiment.Options) (string, error) {
		opts.Configs = []string{"0.30 GHz", "2.15 GHz", "ondemand"}
		res, err := experiment.RunMatrix(workload.Quickstart(), soc.Dragonboard(), opts)
		if err != nil {
			return "", err
		}
		return canonical(report.MatrixRunRecords(res))
	}, false},
	{"sustained", func(opts experiment.Options) (string, error) {
		w := workload.ExportMarathon()
		w.Profile.SoC = soc.BigLittle44()
		configs := []experiment.Config{
			{Name: "interactive", OPPIndex: -1, ArmNames: []string{"interactive", "interactive"}},
			{Name: "ondemand", OPPIndex: -1, ArmNames: []string{"ondemand", "ondemand"}},
		}
		res, err := experiment.RunSustained(w, configs, experiment.SustainedOptions{
			Options: opts, Repeats: 2, Thermal: thermal.PhoneConfig(2, 30, 5),
		})
		if err != nil {
			return "", err
		}
		// Every run's record plus its arm and full per-cluster traces
		// (temperatures and throttle caps included).
		type sustainedRecord struct {
			report.RunRecord
			Throttled bool                   `json:"throttled"`
			Clusters  []*trace.ClusterTraces `json:"clusters"`
		}
		var recs []sustainedRecord
		for _, r := range res.Runs {
			recs = append(recs, sustainedRecord{report.NewRunRecord(res.Workload, r.Run), r.Throttled, r.Clusters})
		}
		return canonical(recs)
	}, false},
	{"population", func(opts experiment.Options) (string, error) {
		opts.Configs = []string{"2.15 GHz", "ondemand"}
		var recs []experiment.PopRun
		res, err := experiment.RunPopulation(workload.Quickstart(), soc.Dragonboard(), experiment.PopulationOptions{
			Options:     opts,
			Units:       2,
			Model:       population.DefaultModel(),
			BaseThermal: thermal.PhoneConfig(1, 0, 0), // record-only zones
			OnPop:       func(pr experiment.PopRun) { recs = append(recs, pr) },
		})
		if err != nil {
			return "", err
		}
		return canonical(struct {
			Recs    []experiment.PopRun
			Summary report.PopulationSummary
		}{recs, report.NewPopulationSummary(res)})
	}, true},
}

func canonical(v any) (string, error) {
	raw, err := json.Marshal(v)
	return string(raw), err
}

// chaosSweep runs a sweep kind on the pool at seed 7, one rep, with the
// given extra options.
func chaosSweep(kind sweepKind, pool *experiment.Pool, mutate func(*experiment.Options)) (string, error) {
	opts := experiment.Options{Reps: 1, Seed: 7, Pool: pool}
	if mutate != nil {
		mutate(&opts)
	}
	return kind.run(opts)
}

// TestPoolContainsInjectedPanic pins the containment contract end to end,
// for every sweep kind: a fault-injected panic in the middle of a sweep
// fails the sweep with a structured *PanicError instead of killing the
// process, the fault is streamed through OnRun with its stack, and the same
// pool then reproduces an undisturbed sweep bit for bit.
func TestPoolContainsInjectedPanic(t *testing.T) {
	for _, kind := range sweepKinds {
		t.Run(kind.name, func(t *testing.T) {
			pool := experiment.NewPool(1)
			want, err := chaosSweep(kind, pool, nil)
			if err != nil {
				t.Fatal(err)
			}

			plan := faultinject.NewPlan()
			plan.Arm("experiment.run", 2)
			var mu sync.Mutex
			var faults []experiment.RunUpdate
			_, err = chaosSweep(kind, pool, func(o *experiment.Options) {
				o.TestHookRun = func(ji int) {
					if plan.Fire("experiment.run") {
						faultinject.PanicNow(plan, "experiment.run")
					}
				}
				o.OnRun = func(u experiment.RunUpdate) {
					if u.Kind == "fault" {
						mu.Lock()
						faults = append(faults, u)
						mu.Unlock()
					}
				}
			})
			if err == nil {
				t.Fatal("sweep with an injected panic returned no error")
			}
			var pe *experiment.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("sweep error %v does not unwrap to *PanicError", err)
			}
			if !faultinject.IsInjected(pe.Value) {
				t.Fatalf("recovered value %v is not the injected fault", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Error("contained panic carries no stack")
			}
			if pool.RecoveredPanics() != 1 {
				t.Fatalf("pool recovered %d panics, want 1", pool.RecoveredPanics())
			}
			if len(faults) != 1 {
				t.Fatalf("%d fault updates streamed, want 1", len(faults))
			}
			if faults[0].Index != 1 || faults[0].Err == "" || !strings.Contains(faults[0].Stack, "goroutine") {
				t.Fatalf("fault update malformed: %+v", faults[0])
			}

			// The pool survives: the next sweep on the same warm sessions
			// matches the pre-fault sweep bit for bit.
			got, err := chaosSweep(kind, pool, nil)
			if err != nil {
				t.Fatalf("pool unusable after contained panic: %v", err)
			}
			if got != want {
				t.Errorf("sweep after contained panic diverged:\nwant %s\ngot  %s", want, got)
			}
		})
	}
}

// TestCorruptCheckpointQuarantineHeals drives the worst containment case,
// for every sweep kind: a warm session whose fork-point checkpoint has
// silently rotted. The next run panics inside Restore, the pool quarantines
// the session (cold reboot on next use), and the rebooted session
// reproduces the original sweep bit for bit — fork≡cold means quarantine is
// invisible in the results.
func TestCorruptCheckpointQuarantineHeals(t *testing.T) {
	for _, kind := range sweepKinds {
		t.Run(kind.name, func(t *testing.T) {
			pool := experiment.NewPool(1)
			want, err := chaosSweep(kind, pool, nil)
			if err != nil {
				t.Fatal(err)
			}

			corrupted := 0
			corrupt := func() {
				pool.EachRegistry(func(r *workload.SessionRegistry) {
					r.Each(func(key string, s *workload.ReplaySession) {
						s.CorruptCheckpoint()
						corrupted++
					})
				})
			}
			if kind.retires {
				// No session outlives a retiring sweep, so the checkpoint
				// rots mid-sweep instead: in the hook of the first unit's
				// second replay, after the first booted the session. The
				// pool's one worker is the hook's own goroutine, so no
				// replay touches the registry meanwhile.
				var once sync.Once
				_, err = chaosSweep(kind, pool, func(o *experiment.Options) {
					o.TestHookRun = func(ji int) {
						if ji == 1 {
							once.Do(corrupt)
						}
					}
				})
			} else {
				if pool.WarmSessions() == 0 {
					t.Fatal("no warm sessions after a sweep")
				}
				corrupt()
				_, err = chaosSweep(kind, pool, nil)
			}
			if corrupted == 0 {
				t.Fatal("corrupted no checkpoints")
			}
			var pe *experiment.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("sweep on a corrupted checkpoint returned %v, want a contained *PanicError", err)
			}
			if pool.Quarantines() == 0 {
				t.Fatal("corrupted session was not quarantined")
			}
			quarantines := pool.Quarantines()

			got, err := chaosSweep(kind, pool, nil)
			if err != nil {
				t.Fatalf("sweep after quarantine: %v", err)
			}
			if got != want {
				t.Errorf("rebooted session diverged from the original:\nwant %s\ngot  %s", want, got)
			}
			if pool.Quarantines() != quarantines {
				t.Errorf("healthy sweep quarantined %d more sessions", pool.Quarantines()-quarantines)
			}
		})
	}
}

// TestGovernorByNameError pins the no-panic contract on governor resolution
// and the selection path that carries it to a 400.
func TestGovernorByNameError(t *testing.T) {
	spec := soc.Dragonboard()
	tbl := spec.Clusters[0].Table
	for _, name := range []string{"conservative", "interactive", "ondemand", "powersave", "performance"} {
		g, err := experiment.GovernorByName(name, tbl)
		if err != nil || g == nil {
			t.Fatalf("GovernorByName(%q) = %v, %v", name, g, err)
		}
	}
	if _, err := experiment.GovernorByName("turbo", tbl); err == nil || !strings.Contains(err.Error(), "turbo") {
		t.Fatalf("unknown governor returned %v, want naming error", err)
	}

	bl := soc.BigLittle44()
	if err := experiment.ValidateSelection(bl, []string{"powersave/interactive"}); err != nil {
		t.Errorf("known mixed arm rejected: %v", err)
	}
	if err := experiment.ValidateSelection(bl, []string{"ondemand/powersave"}); err != nil {
		t.Errorf("custom mixed arm rejected: %v", err)
	}
	err := experiment.ValidateSelection(bl, []string{"turbo/ondemand"})
	if err == nil || !strings.Contains(err.Error(), "turbo") {
		t.Errorf("unknown governor in mixed arm returned %v, want naming error", err)
	}
	if err := experiment.ValidateSelection(soc.Dragonboard(), []string{"0.96 GHz", "turbo/ondemand"}); err == nil {
		t.Error("mixed arm accepted on a single-cluster spec")
	}
}

// TestMixedArmConfigGovernors pins that a selection-synthesised custom arm
// actually builds per-cluster governors.
func TestMixedArmConfigGovernors(t *testing.T) {
	pool := experiment.NewPool(1)
	res, _, err := chaosSweepBL(t, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs["ondemand/conservative"]) != 1 {
		t.Fatalf("custom mixed arm did not run: %v", res.ConfigNames())
	}
}

func chaosSweepBL(t *testing.T, pool *experiment.Pool) (*experiment.MatrixResult, string, error) {
	t.Helper()
	res, err := experiment.RunMatrix(workload.Quickstart(), soc.BigLittle44(), experiment.Options{
		Reps: 1, Seed: 7, Pool: pool,
		Configs: []string{"2.15 GHz", "ondemand/conservative"},
	})
	if err != nil {
		return nil, "", err
	}
	raw, err := json.Marshal(report.MatrixRunRecords(res))
	if err != nil {
		t.Fatal(err)
	}
	return res, string(raw), nil
}
