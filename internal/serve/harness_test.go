package serve

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestPercentile pins the quantile estimator against a fixed sample: exact
// order statistics at the cut points, linear interpolation between them,
// monotonicity in q, and the empty-sample contract.
func TestPercentile(t *testing.T) {
	// 1..10 ms, deliberately unsorted.
	sample := []time.Duration{
		7 * time.Millisecond, 1 * time.Millisecond, 10 * time.Millisecond,
		4 * time.Millisecond, 2 * time.Millisecond, 9 * time.Millisecond,
		5 * time.Millisecond, 3 * time.Millisecond, 8 * time.Millisecond,
		6 * time.Millisecond,
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.50, 5500 * time.Microsecond}, // interpolated midpoint of 5 and 6
		{0.95, 9550 * time.Microsecond},
		{1, 10 * time.Millisecond},
	}
	for _, c := range cases {
		got := Percentile(sample, c.q)
		if d := got - c.want; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("Percentile(q=%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		p := Percentile(sample, q)
		if p < prev {
			t.Fatalf("Percentile not monotone at q=%.2f: %v < %v", q, p, prev)
		}
		prev = p
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
}

// TestHarnessSmoke runs the full qoeload-vs-qoed loop in-process for ~2
// seconds on the small dragonboard matrix and pins the acceptance bar:
// non-zero throughput of at least 50 jobs/min, monotone latency percentiles,
// and zero errors.
func TestHarnessSmoke(t *testing.T) {
	checkLeaks := baselineGoroutines(t)
	srv, client, teardown := newTestServer(t, Options{Executors: 2, Workers: 2, QueueDepth: 8})

	rep, err := RunHarness(context.Background(), HarnessOptions{
		Clients:    4,
		Budget:     2 * time.Second,
		Job:        JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: 1},
		HTTPClient: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("harness report:\n%s", rep)

	if rep.Jobs == 0 {
		t.Fatal("harness completed zero jobs")
	}
	if rep.Errors != 0 {
		t.Errorf("harness saw %d errors, want 0", rep.Errors)
	}
	if rep.JobsPerMinute < 50 {
		t.Errorf("throughput %.1f jobs/min, want >= 50", rep.JobsPerMinute)
	}
	if !(rep.P50 <= rep.P95 && rep.P95 <= rep.P99 && rep.P99 <= rep.Max) {
		t.Errorf("percentiles not monotone: p50 %v p95 %v p99 %v max %v",
			rep.P50, rep.P95, rep.P99, rep.Max)
	}
	if !(rep.QueueP50 <= rep.QueueP95 && rep.QueueP95 <= rep.QueueP99) {
		t.Errorf("queue-wait percentiles not monotone: p50 %v p95 %v p99 %v",
			rep.QueueP50, rep.QueueP95, rep.QueueP99)
	}
	// Every completed job streamed its runs plus a summary.
	if want := rep.Jobs * (len(smallMatrix) + 1); rep.Runs != want {
		t.Errorf("harness counted %d records, want %d (%d jobs x %d)",
			rep.Runs, want, rep.Jobs, len(smallMatrix)+1)
	}
	// One spec in the mix → no per-spec breakdown.
	if rep.JobsBySpec != nil {
		t.Errorf("single-spec run grew a per-spec breakdown: %v", rep.JobsBySpec)
	}
	// Each submission sweeps its own seed, so the throughput above is
	// record, annotate and replay, never a copied log.
	if n := srv.Stats().JobsReused; n != 0 {
		t.Errorf("harness load reused %d jobs, want 0", n)
	}
	teardown()
	checkLeaks()
}

// TestHarnessJobMix cycles two job templates round-robin for ~1s: both specs
// must complete jobs, the per-spec breakdown must appear and add up, and the
// mix must stay error-free — the heterogeneous-load path of qoeload.
func TestHarnessJobMix(t *testing.T) {
	_, client, teardown := newTestServer(t, Options{Executors: 2, Workers: 2, QueueDepth: 8})

	mix := []JobSpec{
		{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: 1},
		{Workload: "quickstart", Idle: true, Configs: smallMatrix, Reps: 1, Seed: 2},
	}
	rep, err := RunHarness(context.Background(), HarnessOptions{
		Clients:    4,
		Budget:     time.Second,
		Jobs:       mix,
		HTTPClient: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mix report:\n%s", rep)

	if rep.Errors != 0 {
		t.Errorf("mix run saw %d errors, want 0", rep.Errors)
	}
	if len(rep.JobsBySpec) != 2 {
		t.Fatalf("per-spec breakdown %v, want 2 entries", rep.JobsBySpec)
	}
	total := 0
	for label, n := range rep.JobsBySpec {
		if n == 0 {
			t.Errorf("spec %q completed no jobs; round-robin should feed both", label)
		}
		total += n
	}
	if total != rep.Jobs {
		t.Errorf("per-spec counts add to %d, want %d", total, rep.Jobs)
	}
	if _, ok := rep.JobsBySpec["quickstart/dragonboard+idle"]; !ok {
		t.Errorf("idle spec missing its label: %v", rep.JobsBySpec)
	}
	teardown()
}

// TestHarnessChaos runs the load harness with the full client-side fault mix
// on: every 3rd submission's stream is cut mid-record, every 5th is cancelled
// right after submit. The bar: every injected cut is recovered by the resume
// path, every cancel drains to a terminal state, clean jobs still flow, and
// no fault surfaces as a client error.
func TestHarnessChaos(t *testing.T) {
	_, client, teardown := newTestServer(t, Options{Executors: 2, Workers: 2, QueueDepth: 8})

	rep, err := RunHarness(context.Background(), HarnessOptions{
		Clients:    4,
		Budget:     2 * time.Second,
		Job:        JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: 1},
		HTTPClient: client,
		Chaos:      HarnessChaos{CutEvery: 3, CancelEvery: 5, CutBytes: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos report:\n%s", rep)

	if rep.Jobs == 0 {
		t.Fatal("chaos run completed zero clean jobs")
	}
	if rep.ChaosCuts == 0 || rep.ChaosCancels == 0 {
		t.Fatalf("fault mix did not inject: cuts %d cancels %d", rep.ChaosCuts, rep.ChaosCancels)
	}
	if rep.ChaosRecovered != rep.ChaosCuts || rep.ChaosFailed != 0 {
		t.Errorf("cut recovery: %d/%d recovered, %d failed — resume should absorb every cut",
			rep.ChaosRecovered, rep.ChaosCuts, rep.ChaosFailed)
	}
	if rep.Errors != 0 {
		t.Errorf("chaos run saw %d client errors, want 0", rep.Errors)
	}
	// Recovered cut jobs are complete jobs: each still streams its full
	// record set.
	if want := rep.Jobs * (len(smallMatrix) + 1); rep.Runs != want {
		t.Errorf("chaos run counted %d records, want %d", rep.Runs, want)
	}
	teardown()
}

// TestHarnessReportJSON pins the qoeload -json wire form: every duration
// appears in milliseconds, counters survive round-trip, and the String form
// is not what gets emitted.
func TestHarnessReportJSON(t *testing.T) {
	rep := &HarnessReport{
		Clients:       3,
		Budget:        2 * time.Second,
		Elapsed:       2500 * time.Millisecond,
		Jobs:          42,
		Runs:          210,
		QueueFull:     7,
		JobsPerMinute: 1008,
		JobsBySpec:    map[string]int{"quickstart/dragonboard": 42},
		P50:           15 * time.Millisecond,
		P95:           40 * time.Millisecond,
		P99:           55 * time.Millisecond,
		Max:           80 * time.Millisecond,
		QueueP50:      2 * time.Millisecond,
		QueueP95:      9 * time.Millisecond,
		QueueP99:      12 * time.Millisecond,
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"clients": 3, "jobs": 42, "runs": 210, "queue_full": 7,
		"jobs_per_minute": 1008, "budget_ms": 2000, "elapsed_ms": 2500,
		"p50_ms": 15, "p95_ms": 40, "p99_ms": 55, "max_ms": 80,
		"queue_p50_ms": 2, "queue_p95_ms": 9, "queue_p99_ms": 12,
	}
	for key, val := range want {
		f, ok := got[key].(float64)
		if !ok || f != val {
			t.Errorf("json field %q = %v, want %v", key, got[key], val)
		}
	}
	if _, ok := got["jobs_by_spec"].(map[string]any); !ok {
		t.Errorf("json missing jobs_by_spec: %s", raw)
	}
	for _, stale := range []string{"P50", "Budget", "Elapsed"} {
		if _, ok := got[stale]; ok {
			t.Errorf("raw duration field %q leaked into the JSON form", stale)
		}
	}
}
