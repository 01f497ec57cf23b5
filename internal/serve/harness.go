package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/stats"
)

// HarnessOptions configures the load harness: N concurrent clients submit
// jobs from one template against a time budget, each streaming its job's
// results to completion before submitting the next — the ReqBench
// task-loop shape, with the server's 429 backpressure handled as retry, not
// failure. Submission n (from 1) sweeps the template's seed + n − 1, so no
// two submissions share a spec and every job records, annotates and
// replays rather than copying a finished job's log.
type HarnessOptions struct {
	// BaseURL is the target server root.
	BaseURL string
	// Clients is the number of concurrent submitters (0 → 4).
	Clients int
	// Budget is the submission window: no new job starts after it
	// elapses, in-flight jobs run to completion (0 → 10s).
	Budget time.Duration
	// Job is the job template every client submits; its seed (0 → 1) is
	// the first submission's.
	Job JobSpec
	// Jobs, when non-empty, is a mix of job templates the harness cycles
	// through round-robin across all submissions (overrides Job) — the
	// way to load a server with heterogeneous sweeps instead of one
	// spec replayed forever.
	Jobs []JobSpec
	// Backoff is the pause after a 429 before resubmitting (0 → 20ms).
	Backoff time.Duration
	// HTTPClient overrides the transport shared by all clients.
	HTTPClient *Client
	// Chaos mixes client-side faults into the load: deterministic stream
	// cuts (exercising the resume path) and mid-job cancels. The report's
	// chaos counters then split injected faults into recovered vs failed.
	Chaos HarnessChaos
}

// HarnessChaos configures the harness's client-side fault mix. Faults are
// scheduled by submission sequence number, not randomness, so a chaos run is
// reproducible: the same options against the same server inject the same
// faults at the same points.
type HarnessChaos struct {
	// CutEvery cuts the result stream of every Nth submission after
	// CutBytes body bytes (0 = off). The client's automatic ?from= resume
	// should recover the job; one that still completes counts as
	// recovered, one that errors counts as failed.
	CutEvery int
	// CutBytes is the body budget before an injected cut (0 → 256).
	CutBytes int
	// CancelEvery cancels every Nth submission right after submit
	// (0 = off) — the "user gave up" shape. A cancel that drains to a
	// terminal state counts as a clean cancel; anything else is an error.
	CancelEvery int
}

// enabled reports whether any fault is configured.
func (c HarnessChaos) enabled() bool { return c.CutEvery > 0 || c.CancelEvery > 0 }

// HarnessReport aggregates a load run: completed jobs, error and
// backpressure counts, and the job latency distribution (submit to terminal
// record, per job).
type HarnessReport struct {
	Clients int           `json:"clients"`
	Budget  time.Duration `json:"-"`
	Elapsed time.Duration `json:"-"`
	// Jobs counts completed jobs; Errors failed ones; QueueFull the 429
	// responses absorbed as retries.
	Jobs      int `json:"jobs"`
	Errors    int `json:"errors"`
	QueueFull int `json:"queue_full"`
	// Runs counts the per-replay result records received across all jobs.
	Runs int `json:"runs"`
	// JobsBySpec breaks completed jobs down per mix entry, keyed
	// "workload/soc[+idle]" — only populated when the mix has more than
	// one distinct key.
	JobsBySpec map[string]int `json:"jobs_by_spec,omitempty"`
	// JobsPerMinute is the completed-job throughput over the elapsed
	// wall time.
	JobsPerMinute float64 `json:"jobs_per_minute"`
	// Chaos counters (only populated when the fault mix is on): ChaosCuts
	// counts injected stream cuts, split into ChaosRecovered (the resume
	// path spliced the stream and the job completed) and ChaosFailed (the
	// job errored anyway, also counted in Errors). ChaosCancels counts
	// injected cancels that drained to a terminal state.
	ChaosCuts      int `json:"chaos_cuts,omitempty"`
	ChaosRecovered int `json:"chaos_recovered,omitempty"`
	ChaosFailed    int `json:"chaos_failed,omitempty"`
	ChaosCancels   int `json:"chaos_cancels,omitempty"`
	// P50/P95/P99/Max summarise the end-to-end job latency distribution
	// (submit to terminal record, measured client-side).
	P50 time.Duration `json:"-"`
	P95 time.Duration `json:"-"`
	P99 time.Duration `json:"-"`
	Max time.Duration `json:"-"`
	// QueueP50/P95/P99 summarise queue wait (created to started, from the
	// server's own job timestamps) — the backpressure component of the
	// latency above, separable so saturation shows up as queue growth
	// rather than mysterious end-to-end slowdown.
	QueueP50 time.Duration `json:"-"`
	QueueP95 time.Duration `json:"-"`
	QueueP99 time.Duration `json:"-"`
}

// String renders the report the way qoeload prints it.
func (r *HarnessReport) String() string {
	s := fmt.Sprintf(
		"clients %d  wall %.1fs\njobs %d (%.1f jobs/min)  runs %d  errors %d  queue-full retries %d\nlatency p50 %s  p95 %s  p99 %s  max %s\nqueue wait p50 %s  p95 %s  p99 %s",
		r.Clients, r.Elapsed.Seconds(), r.Jobs, r.JobsPerMinute, r.Runs, r.Errors, r.QueueFull,
		r.P50.Round(time.Millisecond), r.P95.Round(time.Millisecond),
		r.P99.Round(time.Millisecond), r.Max.Round(time.Millisecond),
		r.QueueP50.Round(time.Millisecond), r.QueueP95.Round(time.Millisecond),
		r.QueueP99.Round(time.Millisecond))
	if r.ChaosCuts > 0 || r.ChaosCancels > 0 {
		s += fmt.Sprintf("\nchaos: cuts %d (recovered %d, failed %d)  cancels %d",
			r.ChaosCuts, r.ChaosRecovered, r.ChaosFailed, r.ChaosCancels)
	}
	return s
}

// MarshalJSON renders the report with every duration in milliseconds, the
// form qoeload -json emits for downstream tooling.
func (r *HarnessReport) MarshalJSON() ([]byte, error) {
	type plain HarnessReport // strip methods so the embed cannot recurse
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return json.Marshal(struct {
		*plain
		BudgetMS   float64 `json:"budget_ms"`
		ElapsedMS  float64 `json:"elapsed_ms"`
		P50MS      float64 `json:"p50_ms"`
		P95MS      float64 `json:"p95_ms"`
		P99MS      float64 `json:"p99_ms"`
		MaxMS      float64 `json:"max_ms"`
		QueueP50MS float64 `json:"queue_p50_ms"`
		QueueP95MS float64 `json:"queue_p95_ms"`
		QueueP99MS float64 `json:"queue_p99_ms"`
	}{
		plain:      (*plain)(r),
		BudgetMS:   ms(r.Budget),
		ElapsedMS:  ms(r.Elapsed),
		P50MS:      ms(r.P50),
		P95MS:      ms(r.P95),
		P99MS:      ms(r.P99),
		MaxMS:      ms(r.Max),
		QueueP50MS: ms(r.QueueP50),
		QueueP95MS: ms(r.QueueP95),
		QueueP99MS: ms(r.QueueP99),
	})
}

// cutClient wraps a client so its next result-stream response is cut after
// bytes body bytes — one deterministic connection reset per job, which the
// client's ?from= resume is expected to absorb.
func cutClient(base *Client, bytes int) *Client {
	if bytes <= 0 {
		bytes = 256
	}
	plan := faultinject.NewPlan()
	plan.Arm("harness.cut", 1)
	return &Client{
		BaseURL: base.BaseURL,
		HTTPClient: &http.Client{Transport: &faultinject.CutTransport{
			Base:       base.httpClient().Transport,
			PathSuffix: "/results",
			Plan:       plan,
			Site:       "harness.cut",
			Bytes:      bytes,
		}},
	}
}

// runCancelledJob is the injected-cancel shape: submit, cancel immediately,
// then drain the stream and require the job to land terminal — the server
// must stay coherent when a client walks away mid-job.
func runCancelledJob(ctx context.Context, c *Client, spec JobSpec) error {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		return err
	}
	if err := c.StreamResults(ctx, st.ID, func(ResultRecord) error { return nil }); err != nil {
		return err
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		return err
	}
	if !Terminal(final.State) {
		return fmt.Errorf("cancelled job %s not terminal (state %q)", st.ID, final.State)
	}
	return nil
}

// specLabel keys a mix entry for the per-spec breakdown.
func specLabel(spec JobSpec) string {
	soc := spec.SoC
	if soc == "" {
		soc = "dragonboard"
	}
	label := spec.Workload + "/" + soc
	if spec.Idle {
		label += "+idle"
	}
	return label
}

// Percentile returns the q-quantile (0..1) of the samples with linear
// interpolation, the same estimator the paper's box statistics use. The
// input need not be sorted; an empty sample yields 0.
func Percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = float64(s)
	}
	sort.Float64s(xs)
	return time.Duration(stats.Quantile(xs, q))
}

// RunHarness drives a qoed server with Clients concurrent submitters for the
// budget window and aggregates the outcome. ctx aborts the whole run early
// (in-flight jobs are abandoned and counted as errors only if they fail).
func RunHarness(ctx context.Context, opts HarnessOptions) (*HarnessReport, error) {
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Budget <= 0 {
		opts.Budget = 10 * time.Second
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 20 * time.Millisecond
	}
	client := opts.HTTPClient
	if client == nil {
		client = &Client{BaseURL: opts.BaseURL}
	}
	if err := client.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("harness: server not healthy: %w", err)
	}
	mix := opts.Jobs
	if len(mix) == 0 {
		mix = []JobSpec{opts.Job}
	}

	var mu sync.Mutex
	var latencies, waits []time.Duration
	bySpec := make(map[string]int)
	rep := &HarnessReport{Clients: opts.Clients, Budget: opts.Budget}

	start := time.Now()
	deadline := start.Add(opts.Budget)
	var submitSeq atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				seq := submitSeq.Add(1)
				spec := mix[int(seq-1)%len(mix)]
				if spec.Seed == 0 {
					spec.Seed = 1
				}
				spec.Seed += uint64(seq - 1)

				if opts.Chaos.CancelEvery > 0 && seq%int64(opts.Chaos.CancelEvery) == 0 {
					err := runCancelledJob(ctx, client, spec)
					mu.Lock()
					switch {
					case err != nil && IsQueueFull(err):
						rep.QueueFull++
						mu.Unlock()
						select {
						case <-time.After(opts.Backoff):
						case <-ctx.Done():
						}
						continue
					case err != nil:
						rep.Errors++
					default:
						rep.ChaosCancels++
					}
					mu.Unlock()
					continue
				}

				jc := client
				cut := opts.Chaos.CutEvery > 0 && seq%int64(opts.Chaos.CutEvery) == 0
				if cut {
					jc = cutClient(client, opts.Chaos.CutBytes)
				}
				t0 := time.Now()
				recs, final, err := jc.RunJob(ctx, spec)
				lat := time.Since(t0)
				mu.Lock()
				switch {
				case err != nil && IsQueueFull(err):
					rep.QueueFull++
					mu.Unlock()
					select {
					case <-time.After(opts.Backoff):
					case <-ctx.Done():
					}
					continue
				case err != nil:
					rep.Errors++
					if cut {
						rep.ChaosCuts++
						rep.ChaosFailed++
					}
				default:
					rep.Jobs++
					rep.Runs += len(recs)
					latencies = append(latencies, lat)
					bySpec[specLabel(spec)]++
					if final != nil && final.StartedMS >= final.CreatedMS && final.StartedMS > 0 {
						waits = append(waits, time.Duration(final.StartedMS-final.CreatedMS)*time.Millisecond)
					}
					if cut {
						rep.ChaosCuts++
						rep.ChaosRecovered++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	rep.Elapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.JobsPerMinute = float64(rep.Jobs) / rep.Elapsed.Minutes()
	}
	rep.P50 = Percentile(latencies, 0.50)
	rep.P95 = Percentile(latencies, 0.95)
	rep.P99 = Percentile(latencies, 0.99)
	for _, l := range latencies {
		if l > rep.Max {
			rep.Max = l
		}
	}
	rep.QueueP50 = Percentile(waits, 0.50)
	rep.QueueP95 = Percentile(waits, 0.95)
	rep.QueueP99 = Percentile(waits, 0.99)
	if len(bySpec) > 1 {
		rep.JobsBySpec = bySpec
	}
	return rep, nil
}
