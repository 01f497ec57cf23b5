package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitState polls a job's status until it reaches want (or any terminal
// state) within the deadline.
func waitState(t *testing.T, client *Client, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := client.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if Terminal(st.State) {
			t.Fatalf("job %s reached %q while waiting for %q (err %q)", id, st.State, want, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return JobStatus{}
}

// TestConcurrentJobSubmission hammers the server with parallel clients (run
// under -race in CI): every accepted job completes with state done and a
// summary, and the lifetime counters add up.
func TestConcurrentJobSubmission(t *testing.T) {
	srv, client, teardown := newTestServer(t, Options{Executors: 2, Workers: 2, QueueDepth: 16})
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: uint64(i + 1)}
			recs, final, err := client.RunJob(context.Background(), spec)
			if err != nil {
				errs[i] = err
				return
			}
			if final.State != StateDone {
				errs[i] = fmt.Errorf("job %d state %q", i, final.State)
				return
			}
			if len(recs) != len(smallMatrix)+1 { // runs + summary
				errs[i] = fmt.Errorf("job %d: %d records, want %d", i, len(recs), len(smallMatrix)+1)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.JobsDone != n || st.JobsSubmitted != n {
		t.Errorf("counters: done %d submitted %d, want %d each", st.JobsDone, st.JobsSubmitted, n)
	}
	// Distinct seeds mean distinct recordings, yet the warm sessions are
	// shared: at most one boot per (executor worker, workload|spec) key.
	if st.WarmSessions == 0 {
		t.Error("no warm sessions after 8 jobs")
	}
	if st.Forks["quickstart|dragonboard-apq8074"] == 0 {
		t.Errorf("no forks recorded for the quickstart session key: %v", st.Forks)
	}
	teardown()
}

// TestQueueOverflowReturns429 pins the backpressure contract
// deterministically: with one executor held mid-job and a queue of one, the
// third submission must be refused with 429 — and once the executor is
// released, the server drains and accepts work again (the pool is not
// wedged).
func TestQueueOverflowReturns429(t *testing.T) {
	gate := make(chan struct{})
	srv := mustNew(t, Options{Executors: 1, Workers: 1, QueueDepth: 1})
	srv.testHook = func(_ *job, kind string) {
		if kind == "start" {
			<-gate
		}
	}
	_, client, teardown := mountServer(t, srv)

	ctx := context.Background()
	spec := JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1}

	first, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, client, first.ID, StateRunning) // held by the gate
	if _, err := client.Submit(ctx, spec); err != nil {
		t.Fatalf("second submission should queue: %v", err)
	}
	_, err = client.Submit(ctx, spec)
	if !IsQueueFull(err) {
		t.Fatalf("third submission: got %v, want 429 queue-full", err)
	}
	st := srv.Stats()
	if st.QueueDepth != 1 || st.JobsRejected != 1 {
		t.Errorf("stats depth %d rejected %d, want 1 and 1", st.QueueDepth, st.JobsRejected)
	}

	// Release the executor (a closed gate lets every later job straight
	// through the hook); both jobs drain.
	close(gate)
	waitState(t, client, first.ID, StateDone)

	// Not wedged: a fresh job completes end to end. A new seed keeps it
	// off the finished jobs' logs, so it runs on the pool.
	fresh := spec
	fresh.Seed = 2
	_, final, err := client.RunJob(ctx, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("post-overflow job state %q", final.State)
	}
	teardown()
}

// TestCancelRunningJobFreesWorkerAndKeepsSessions cancels a job mid-sweep
// and verifies the executor is freed for new work with its warmed sessions
// intact.
func TestCancelRunningJobFreesWorkerAndKeepsSessions(t *testing.T) {
	checkLeaks := baselineGoroutines(t)
	gate := make(chan struct{})
	firstRec := make(chan struct{})
	var first sync.Once
	srv := mustNew(t, Options{Executors: 1, Workers: 1, QueueDepth: 4})
	// Hold the worker after its first run record so the cancel lands
	// mid-sweep deterministically (a closed gate passes later records
	// straight through).
	srv.testHook = func(_ *job, kind string) {
		if kind == "run" {
			first.Do(func() { close(firstRec) })
			<-gate
		}
	}
	_, client, teardown := mountServer(t, srv)
	ctx := context.Background()

	st, err := client.Submit(ctx, JobSpec{Workload: "quickstart", Reps: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-firstRec
	if _, err := client.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	close(gate) // release the worker; it finishes its run and observes the cancel

	// Drain the stream; it ends once the job is terminal.
	if err := client.StreamResults(ctx, st.ID, func(ResultRecord) error { return nil }); err != nil {
		t.Fatal(err)
	}
	final, err := client.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("state %q, want cancelled", final.State)
	}
	if final.Runs >= final.TotalRuns {
		t.Fatalf("cancelled job delivered %d/%d records; cancellation should land mid-sweep",
			final.Runs, final.TotalRuns)
	}

	warmBefore := srv.Stats().WarmSessions
	if warmBefore == 0 {
		t.Fatal("no warm sessions after the cancelled job")
	}

	// Worker freed, sessions reusable: the next job completes and boots no
	// new session for the same (workload, spec).
	_, final2, err := client.RunJob(ctx, JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateDone {
		t.Fatalf("follow-up job state %q", final2.State)
	}
	if warmAfter := srv.Stats().WarmSessions; warmAfter != warmBefore {
		t.Errorf("warm sessions %d -> %d; cancellation should leave them reusable", warmBefore, warmAfter)
	}
	teardown()
	checkLeaks()
}

// TestCancelQueuedJobNeverRuns cancels a job while it waits behind a held
// executor: it must finish cancelled without ever running.
func TestCancelQueuedJobNeverRuns(t *testing.T) {
	gate := make(chan struct{})
	srv := mustNew(t, Options{Executors: 1, Workers: 1, QueueDepth: 2})
	srv.testHook = func(_ *job, kind string) {
		if kind == "start" {
			<-gate
		}
	}
	_, client, teardown := mountServer(t, srv)
	ctx := context.Background()
	spec := JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1}

	first, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, client, first.ID, StateRunning)
	queued, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job state after cancel %q", st.State)
	}
	close(gate)
	waitState(t, client, first.ID, StateDone)
	if st, _ := client.Status(ctx, queued.ID); st.State != StateCancelled || st.StartedMS != 0 {
		t.Errorf("cancelled-queued job state %q started_ms %d; must never run", st.State, st.StartedMS)
	}
	teardown()
}

// TestClientDisconnectDuringStreamDoesNotLeak opens a result stream, drops
// it after the first record, and verifies the job still completes and no
// goroutine outlives teardown — the streamer must unwind on request-context
// cancellation, not hold the job.
func TestClientDisconnectDuringStreamDoesNotLeak(t *testing.T) {
	checkLeaks := baselineGoroutines(t)
	gate := make(chan struct{})
	var first sync.Once
	srv := mustNew(t, Options{Executors: 1, Workers: 1, QueueDepth: 4})
	// Hold the job mid-sweep after its first record, so the disconnect
	// provably happens while the handler is following a live job (not
	// draining an already-terminal log from the buffer).
	srv.testHook = func(_ *job, kind string) {
		if kind == "run" {
			first.Do(func() { <-gate })
		}
	}
	_, client, teardown := mountServer(t, srv)
	ctx := context.Background()

	st, err := client.Submit(ctx, JobSpec{Workload: "quickstart", Reps: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	streamCtx, cancelStream := context.WithCancel(ctx)
	err = client.StreamResults(streamCtx, st.ID, func(rec ResultRecord) error {
		cancelStream() // hang up after the first record
		return nil
	})
	cancelStream()
	close(gate) // release the job only after the stream was cut
	if err == nil {
		t.Fatal("stream should have been cut by the client disconnect")
	}

	// The job is not tied to its stream: it runs to completion.
	deadline := time.Now().Add(30 * time.Second)
	for {
		final, err := client.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State == StateDone {
			break
		}
		if Terminal(final.State) {
			t.Fatalf("job ended %q after client disconnect", final.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh stream replays the full log including the summary.
	var summary int
	if err := client.StreamResults(ctx, st.ID, func(rec ResultRecord) error {
		if rec.Type == "summary" {
			summary++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if summary != 1 {
		t.Fatalf("replayed stream carried %d summaries, want 1", summary)
	}
	teardown()
	checkLeaks()
}

// TestJobRegistryEviction pins the retention contract: terminal jobs beyond
// RetainJobs are evicted oldest-finished-first, an evicted id answers 404 on
// every endpoint, and the registry gauge stays bounded — the property that
// keeps qoed's memory flat under qoeload-scale traffic.
func TestJobRegistryEviction(t *testing.T) {
	srv, client, teardown := newTestServer(t,
		Options{Executors: 1, Workers: 1, QueueDepth: 4, RetainJobs: 2})
	ctx := context.Background()

	const n = 5
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		_, final, err := client.RunJob(ctx, JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = final.ID
	}

	st := srv.Stats()
	if st.JobsTracked != 2 {
		t.Errorf("registry tracks %d jobs, want 2 (the retention cap)", st.JobsTracked)
	}
	if st.JobsEvicted != n-2 {
		t.Errorf("evicted %d jobs, want %d", st.JobsEvicted, n-2)
	}
	if st.JobsDone != n {
		t.Errorf("done counter %d, want %d (eviction must not rewrite history)", st.JobsDone, n)
	}

	// The two newest-finished jobs survive with their full result logs; the
	// older three answer 404 on status, results and cancel alike.
	for i, id := range ids {
		_, stErr := client.Status(ctx, id)
		strErr := client.StreamResults(ctx, id, func(ResultRecord) error { return nil })
		_, cancelErr := client.Cancel(ctx, id)
		if i < n-2 {
			for what, err := range map[string]error{"status": stErr, "stream": strErr, "cancel": cancelErr} {
				var ae *apiError
				if !AsAPIError(err, &ae) || ae.Status != http.StatusNotFound {
					t.Errorf("evicted job %s %s: got %v, want 404", id, what, err)
				}
			}
		} else {
			if stErr != nil || strErr != nil {
				t.Errorf("retained job %s: status %v stream %v, want both nil", id, stErr, strErr)
			}
		}
	}
	teardown()
}

// TestJobRegistryEvictionUnderChurn runs eviction concurrently with
// submission and streaming (under -race in CI): the registry gauge must stay
// bounded and the server must keep completing jobs — eviction can never
// wedge or corrupt the live side of the registry.
func TestJobRegistryEvictionUnderChurn(t *testing.T) {
	checkLeaks := baselineGoroutines(t)
	srv, client, teardown := newTestServer(t,
		Options{Executors: 2, Workers: 1, QueueDepth: 8, RetainJobs: 2})
	ctx := context.Background()

	const clients, perClient = 3, 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	streamed, evictedEarly := 0, 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				st, err := client.Submit(ctx, JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: uint64(c*perClient + i + 1)})
				if IsQueueFull(err) {
					time.Sleep(10 * time.Millisecond)
					i--
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				// Under a tiny retention cap a fast job can finish AND be
				// evicted before its own client opens the stream — a 404
				// here is the retention contract working, not a failure.
				err = client.StreamResults(ctx, st.ID, func(ResultRecord) error { return nil })
				var ae *apiError
				mu.Lock()
				switch {
				case err == nil:
					streamed++
				case AsAPIError(err, &ae) && ae.Status == http.StatusNotFound:
					evictedEarly++
				default:
					t.Error(err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	st := srv.Stats()
	if streamed+evictedEarly != clients*perClient {
		t.Errorf("streamed %d + evicted-early %d != %d submissions", streamed, evictedEarly, clients*perClient)
	}
	if st.JobsTracked > 2 {
		t.Errorf("registry tracks %d jobs at quiescence, want <= cap of 2", st.JobsTracked)
	}
	// Every accepted job ran to a terminal state regardless of eviction —
	// the registry churn never loses or wedges work.
	if st.JobsDone+st.JobsFailed+st.JobsCancelled != clients*perClient {
		t.Errorf("terminal counters %d+%d+%d do not add up to %d",
			st.JobsDone, st.JobsFailed, st.JobsCancelled, clients*perClient)
	}
	teardown()
	checkLeaks()
}

// TestTerminalRecordAfterSettle pins the order of a job's terminal
// transition as a client sees it: once RunJob has read the terminal record,
// /statsz already counts the job and the registry is already trimmed to
// RetainJobs. Before the count and retire moved inside the transition, this
// failed on a few of the 60 jobs under -race with other CPU load.
func TestTerminalRecordAfterSettle(t *testing.T) {
	srv, client, _ := newTestServer(t, Options{Executors: 1, Workers: 1, RetainJobs: 2})
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		spec := JobSpec{Workload: "quickstart", Configs: []string{"0.96 GHz"}, Reps: 1, Seed: uint64(i + 1)}
		if _, _, err := client.RunJob(ctx, spec); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if st := srv.Stats(); st.JobsDone != i+1 || st.JobsTracked > 2 {
			t.Fatalf("after job %d returned: jobs_done %d, jobs_tracked %d; want %d and <= 2",
				i, st.JobsDone, st.JobsTracked, i+1)
		}
	}
}

// TestListJobs pins the listing endpoint: newest-first order, state
// filtering, limit truncation with a Total that exposes it, and 400 on an
// unknown state.
func TestListJobs(t *testing.T) {
	gate := make(chan struct{})
	srv := mustNew(t, Options{Executors: 1, Workers: 1, QueueDepth: 4})
	srv.testHook = func(_ *job, kind string) {
		if kind == "start" {
			<-gate
		}
	}
	_, client, teardown := mountServer(t, srv)
	ctx := context.Background()
	spec := JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1}

	running, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, client, running.ID, StateRunning)
	queued, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	all, err := client.List(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if all.Total != 2 || len(all.Jobs) != 2 {
		t.Fatalf("list: total %d len %d, want 2 and 2", all.Total, len(all.Jobs))
	}
	if all.Jobs[0].ID != queued.ID || all.Jobs[1].ID != running.ID {
		t.Errorf("list order [%s %s], want newest-first [%s %s]",
			all.Jobs[0].ID, all.Jobs[1].ID, queued.ID, running.ID)
	}

	onlyRunning, err := client.List(ctx, StateRunning, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(onlyRunning.Jobs) != 1 || onlyRunning.Jobs[0].ID != running.ID {
		t.Errorf("state=running listed %d jobs, want just %s", len(onlyRunning.Jobs), running.ID)
	}

	limited, err := client.List(ctx, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Jobs) != 1 || limited.Total != 2 {
		t.Errorf("limit=1: len %d total %d, want 1 and 2 (truncation must be visible)",
			len(limited.Jobs), limited.Total)
	}

	var ae *apiError
	if _, err := client.List(ctx, "sideways", 0); !AsAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Errorf("unknown state filter: got %v, want 400", err)
	}

	close(gate)
	waitState(t, client, running.ID, StateDone)
	waitState(t, client, queued.ID, StateDone)
	done, err := client.List(ctx, StateDone, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done.Total != 2 {
		t.Errorf("state=done total %d after drain, want 2", done.Total)
	}
	teardown()
}

// TestJobDeadlineExceeded pins the per-job deadline: a job whose sweep
// overruns timeout_ms ends failed with a deadline error, the executor is
// freed, and the warmed sessions stay reusable — a runaway job cannot hold
// an executor hostage.
func TestJobDeadlineExceeded(t *testing.T) {
	var first sync.Once
	srv := mustNew(t, Options{Executors: 1, Workers: 1, QueueDepth: 4})
	// Stall the sweep well past the deadline after its first record; the
	// pool then refuses to claim further replays and the executor
	// surfaces context.DeadlineExceeded.
	srv.testHook = func(_ *job, kind string) {
		if kind == "run" {
			first.Do(func() { time.Sleep(500 * time.Millisecond) })
		}
	}
	_, client, teardown := mountServer(t, srv)
	ctx := context.Background()

	st, err := client.Submit(ctx, JobSpec{Workload: "quickstart", Reps: 3, Seed: 2, TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.StreamResults(ctx, st.ID, func(ResultRecord) error { return nil }); err != nil {
		t.Fatal(err)
	}
	final, err := client.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline exceeded") {
		t.Fatalf("state %q error %q, want failed with a deadline error", final.State, final.Error)
	}
	if final.Runs >= final.TotalRuns {
		t.Errorf("deadline job delivered %d/%d records; the deadline should land mid-sweep",
			final.Runs, final.TotalRuns)
	}
	if got := srv.Stats().JobsFailed; got != 1 {
		t.Errorf("jobs_failed %d, want 1", got)
	}

	// Executor freed, sessions warm: an undeadlined job completes.
	warm := srv.Stats().WarmSessions
	if warm == 0 {
		t.Fatal("no warm sessions after the deadlined job")
	}
	_, final2, err := client.RunJob(ctx, JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateDone {
		t.Fatalf("follow-up job state %q", final2.State)
	}
	if after := srv.Stats().WarmSessions; after != warm {
		t.Errorf("warm sessions %d -> %d across the deadline; they must survive", warm, after)
	}
	teardown()
}

// TestSubmitValidation rejects malformed jobs before they occupy queue
// slots.
func TestSubmitValidation(t *testing.T) {
	_, client, teardown := newTestServer(t, Options{Executors: 1, Workers: 1, QueueDepth: 2})
	ctx := context.Background()
	cases := []JobSpec{
		{Workload: "nope"},
		{Workload: "quickstart", SoC: "exynos"},
		{Workload: "quickstart", Configs: []string{"3.00 GHz"}},
		{Workload: "quickstart", Configs: []string{"ondemand"}}, // no fixed freq on single-cluster
		{Workload: "quickstart", Reps: 100},
		{Workload: "quickstart", TimeoutMS: -1},
		{Workload: "quickstart", TimeoutMS: 3_600_000},
	}
	for i, spec := range cases {
		_, err := client.Submit(ctx, spec)
		var ae *apiError
		if !AsAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("case %d: got %v, want 400", i, err)
		}
	}
	teardown()
}
