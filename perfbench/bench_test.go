package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/soc"
	"repro/internal/workload"
)

// The benchmark's own arithmetic: tail percentiles, open-loop timing, the
// arrival schedule, span self time, and the traced re-drive itself.

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, beyond, ok := tail(xs, 0.9)
	if !ok || beyond != 10 || math.Abs(v-89.1) > 1e-9 {
		t.Fatalf("p90 of 0..99 = %v with %d beyond (ok=%v), want 89.1 with 10", v, beyond, ok)
	}
	if _, beyond, ok := tail(xs[:90], 0.9); ok || beyond != 9 {
		t.Fatalf("90 samples: %d beyond, ok=%v; want 9, not reportable", beyond, ok)
	}
	same := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if _, beyond, ok := tail(same, 0.5); ok || beyond != 0 {
		t.Fatalf("ties: %d beyond, ok=%v; want 0, not reportable", beyond, ok)
	}
}

func TestEndToEndScalesTimesToReferenceSpeed(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	// The reference task ran at half the nominal speed: times halve, a
	// throughput the machine sets doubles, an offered one and memory stay.
	slow := 2 * refNominal.Seconds()
	for _, offered := range []bool{false, true} {
		o := &outcome{setup: []float64{4, 2, 3}, latency: lat, simS: 100, window: 10, offered: offered,
			heap: []float64{5}, ref: []float64{slow, slow}}
		got := map[string]metric{}
		endToEnd(o, got)
		wantRate := 20.0
		if offered {
			wantRate = 10
		}
		want := map[string]float64{"setup_s": 1.5, "latency_s_p50": 25.25, "sim_s_per_s": wantRate, "heap_peak_mb": 5}
		for k, v := range want {
			if math.Abs(got[k].Value-v) > 1e-9 {
				t.Errorf("offered=%v: %s = %v, want %v", offered, k, got[k].Value, v)
			}
		}
		if len(o.errs) != 0 {
			t.Errorf("offered=%v: %v", offered, o.errs)
		}
	}
}

func TestSelfTimeSubtractsUnionOfParallelChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 50},  // worker A
		{ID: 3, Parent: 1, Start: 30, End: 70},  // worker B, overlaps A
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Start: 20, End: 30},
	}
	self := selfTimes(spans)
	// Children cover [10,70) and [90,100): 70 of the parent's 100.
	if self[1] != 30 {
		t.Fatalf("parent self = %d, want 30", self[1])
	}
	if self[2] != 30 || self[3] != 40 || self[5] != 10 {
		t.Fatalf("children self = %d, %d, %d; want 30, 40, 10", self[2], self[3], self[5])
	}
}

func TestRequestLayersSerialAndBusy(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRequest, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanRecord, Start: 0, End: 20},
		{ID: 3, Parent: 1, Name: spanJob, Start: 20, End: 100},
		{ID: 4, Parent: 1, Name: spanJob, Start: 20, End: 60},
		{ID: 5, Parent: 3, Name: spanReplay, Start: 20, End: 90, SimS: 7e-6, Frames: 10, Distinct: 4},
	}
	m := requestLayers(spans, 2)
	want := map[string]float64{
		"experiment.serial_s":         20e-9,
		"experiment.worker_busy_frac": 120.0 / 200,
		"workload.replay_sim_s_per_s": 7e-6 / 70e-9,
		"video.distinct_frac":         0.4,
		"workload.record_n":           1,
		"experiment.self_s":           (0 + 10 + 40) * 1e-9,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9*math.Max(1, math.Abs(v)) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestServeScheduleIsDeterministic(t *testing.T) {
	a := serveSchedule(7, 6, 25*time.Second)
	b := serveSchedule(7, 6, 25*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if len(a) != 150 {
		t.Fatalf("%d jobs, want rate x window = 150", len(a))
	}
	if reflect.DeepEqual(a, serveSchedule(8, 6, 25*time.Second)) {
		t.Fatal("different seeds, same schedule")
	}
	kinds := [numKinds]int{}
	repeats := 0
	seen := map[[2]int]bool{}
	for i, j := range a {
		if j.due < 0 || j.due >= 25*time.Second || i > 0 && j.due < a[i-1].due {
			t.Fatalf("job %d due %v: not sorted inside the window", i, j.due)
		}
		kinds[j.kind]++
		if seen[[2]int{j.kind, j.slot}] {
			repeats++
		}
		seen[[2]int{j.kind, j.slot}] = true
	}
	if kinds != [numKinds]int{50, 50, 50} {
		t.Fatalf("kinds %v, want round-robin 50 each", kinds)
	}
	if repeats < 50 || repeats > 100 {
		t.Fatalf("%d of 150 jobs repeat an earlier slot, want about half", repeats)
	}
}

func TestClosedLoopsNeverRepeatAnInput(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 201} {
		paper := paperStudy(seed, 2, g)
		seen := map[string]bool{}
		for j := -paper.warmups; j < paper.requests; j++ {
			r := paperRequest(seed, j)
			key := fmt.Sprintf("%s/%d", r.w.Name, r.slot)
			if seen[key] {
				t.Fatalf("seed %d: paper-study request %d repeats %s", seed, j, key)
			}
			seen[key] = true
			if cl := paper.golden(j); cl == "" {
				t.Fatalf("seed %d: paper-study request %d has no golden digest", seed, j)
			}
		}
		if len(seen) != paperSlots*len(workload.Datasets()) {
			t.Fatalf("seed %d: paper-study uses %d inputs, want the whole pool", seed, len(seen))
		}
		fleet := fleetBigLittle(seed, 2, g)
		used := map[int]bool{}
		for j := -fleet.warmups; j < fleet.requests; j++ {
			k, _ := fleetRequest(seed, j)
			if used[k] {
				t.Fatalf("seed %d: fleet-biglittle request %d repeats slot %d", seed, j, k)
			}
			used[k] = true
			if fleet.golden(j) == "" {
				t.Fatalf("seed %d: fleet-biglittle request %d has no golden digest", seed, j)
			}
		}
		if len(used) != fleetSlots {
			t.Fatalf("seed %d: fleet-biglittle uses %d slots, want the whole pool", seed, len(used))
		}
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	var n atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("job-%d", n.Add(1))
		if id == "job-1" {
			time.Sleep(100 * time.Millisecond) // the generator stalls on job 1
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: id, State: serve.StateQueued})
	})
	mux.HandleFunc("GET /jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") == "job-1" {
			time.Sleep(100 * time.Millisecond) // and so does its result
		}
		json.NewEncoder(w).Encode(serve.ResultRecord{Type: "summary", Summary: &report.MatrixSummary{Workload: "w"}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ct := &countingTransport{base: http.DefaultTransport}
	e := &serveEnv{submit: &serve.Client{BaseURL: ts.URL}, follow: &serve.Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: ct}}, bytes: ct}

	jobs := []serveJob{{due: 0}, {due: 20 * time.Millisecond}, {due: 40 * time.Millisecond}}
	var idles []time.Time
	runs := e.drive(context.Background(), jobs, time.Now(), func(next time.Time) { idles = append(idles, next) })
	if len(idles) != 2 || !idles[0].Equal(runs[1].due) || !idles[1].Equal(runs[2].due) {
		t.Errorf("idle calls %v, want the due times of jobs 2 and 3", idles)
	}
	for i, r := range runs {
		if r.err != nil {
			t.Fatalf("job %d: %v", i, r.err)
		}
		if r.bytes == 0 {
			t.Errorf("job %d: no result bytes counted", i)
		}
	}
	// Job 1 took 200 ms. Jobs 2 and 3 were due at 20 and 40 ms but could be
	// sent and followed only after it: their latency carries the stall.
	for i, atLeast := range []time.Duration{200, 180, 160} {
		if got := time.Duration(runs[i].latency() * float64(time.Second)); got < (atLeast-15)*time.Millisecond {
			t.Errorf("job %d latency %v, want >= ~%d ms (counted from its due time)", i, got, atLeast)
		}
	}
	if late := runs[1].submitAt.Sub(runs[1].due); late < 60*time.Millisecond {
		t.Errorf("job 2 sent %v after its due time, want the generator's stall", late)
	}
}

func TestTracedMatrixEqualsRunMatrix(t *testing.T) {
	w := workload.Quickstart()
	for _, spec := range []soc.Spec{soc.Dragonboard(), fleetSpec()} {
		configs := []string{"2.15 GHz", "ondemand"}
		want, err := experiment.RunMatrix(w, spec, experiment.Options{Reps: 2, Seed: 11, Workers: 2, Configs: configs})
		if err != nil {
			t.Fatal(err)
		}
		ts := &tracedSweep{t: newTracer(), workers: 2}
		got, err := ts.matrix(0, 0, w, spec, configs, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		if matrixDigest(got) != matrixDigest(want) || matrixCounts(got) != matrixCounts(want) {
			t.Fatalf("%s: traced %s %+v, RunMatrix %s %+v", spec.Name,
				matrixDigest(got), matrixCounts(got), matrixDigest(want), matrixCounts(want))
		}
	}
}

func TestTracedPopulationEqualsRunPopulation(t *testing.T) {
	p := fleetSweep(5)
	p.units = 2
	want, err := experiment.RunPopulation(p.w, p.spec, experiment.PopulationOptions{
		Options: experiment.Options{Reps: p.reps, Seed: p.seed, Workers: 2, Configs: p.configs},
		Units:   p.units, Model: p.model, BaseThermal: p.thermal,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Long-lived lanes exercise the per-unit session release as well.
	ts := &tracedSweep{t: newTracer(), workers: 2, lanes: newLanes(2)}
	got, _, err := ts.population(0, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if populationDigest(got) != populationDigest(want) || got.Runs != want.Runs {
		t.Fatalf("traced %s (%d runs), RunPopulation %s (%d runs)",
			populationDigest(got), got.Runs, populationDigest(want), want.Runs)
	}
}
