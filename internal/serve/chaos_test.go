package serve

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/workload"
)

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// chaosJob is the spec the chaos tests sweep; seed differs from the clean
// job so the fault hook can target it alone.
var chaosJob = JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: 99}

// TestServePanicIsolation is the containment acceptance test at the service
// boundary: a fault-injected panic inside one job's replay fails that job
// with its partial results and a "fault" record carrying the stack, while a
// clean job running concurrently on the other executor streams results
// bit-identical to the direct sweep — and the process, obviously, survives.
func TestServePanicIsolation(t *testing.T) {
	srv := mustNew(t, Options{Executors: 2, Workers: 1, QueueDepth: 4})
	plan := faultinject.NewPlan()
	plan.Arm("serve.run", 3)
	srv.testHook = func(j *job, kind string) {
		if kind == "start" && j.spec.Seed == chaosJob.Seed && plan.Fire("serve.run") {
			faultinject.PanicNow(plan, "serve.run")
		}
	}
	_, client, _ := mountServer(t, srv)

	var wg sync.WaitGroup
	var cleanRecs []ResultRecord
	var cleanErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		var final *JobStatus
		cleanRecs, final, cleanErr = client.RunJob(context.Background(),
			JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: 9})
		if cleanErr == nil && final.State != StateDone {
			cleanErr = io.ErrUnexpectedEOF
		}
	}()

	st, err := client.Submit(context.Background(), chaosJob)
	if err != nil {
		t.Fatal(err)
	}
	var faults, runs int
	var stack string
	if err := client.StreamResults(context.Background(), st.ID, func(rec ResultRecord) error {
		switch rec.Type {
		case "fault":
			faults++
			stack = rec.Stack
		case "run":
			runs++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	final, err := client.Status(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "panicked") {
		t.Fatalf("chaos job finished %q (%q), want failed with a panic error", final.State, final.Error)
	}
	if faults != 1 || !strings.Contains(stack, "goroutine") {
		t.Fatalf("%d fault records (stack %q), want 1 with a worker stack", faults, stack)
	}
	if runs == 0 {
		t.Error("chaos job streamed no partial results before the fault")
	}

	wg.Wait()
	if cleanErr != nil {
		t.Fatalf("concurrent clean job perturbed: %v", cleanErr)
	}
	wantRuns, wantSummary, order := directRunsAndSummary(t, 1, 9)
	assertRecordsMatchDirect(t, cleanRecs, wantRuns, wantSummary, order)

	stats := srv.Stats()
	if stats.RunPanics != 1 {
		t.Errorf("statsz run_panics = %d, want 1", stats.RunPanics)
	}
	if stats.JobsFailed != 1 || stats.JobsDone != 1 {
		t.Errorf("statsz jobs_failed=%d jobs_done=%d, want 1/1", stats.JobsFailed, stats.JobsDone)
	}
}

// TestServeQuarantineHeals corrupts the warm sessions of an executor pool
// between jobs: the next job fails on the contained Seal panic and
// quarantines the session (visible in /statsz), and the job after that — on
// the cold-rebooted session — reproduces the direct sweep bit for bit. Both
// sweep a seed the warm-up did not, so neither copies the warm-up's log.
func TestServeQuarantineHeals(t *testing.T) {
	srv, client, _ := newTestServer(t, Options{Executors: 1, Workers: 1, QueueDepth: 4})
	_, final, err := client.RunJob(context.Background(), chaosJob)
	if err != nil || final.State != StateDone {
		t.Fatalf("warmup job: %v / %+v", err, final)
	}

	corrupted := 0
	for _, e := range srv.execs {
		e.pool.EachRegistry(func(r *workload.SessionRegistry) {
			r.Each(func(key string, s *workload.ReplaySession) {
				s.CorruptSession()
				corrupted++
			})
		})
	}
	if corrupted == 0 {
		t.Fatal("no warm sessions to corrupt")
	}

	fresh := chaosJob
	fresh.Seed = 98
	_, _, err = client.RunJob(context.Background(), fresh)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("job on a corrupted session returned %v, want a contained panic failure", err)
	}
	stats, err := client.Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.SessionQuarantines == 0 || stats.RunPanics == 0 {
		t.Fatalf("statsz quarantines=%d panics=%d, want both > 0",
			stats.SessionQuarantines, stats.RunPanics)
	}

	recsAfter, final, err := client.RunJob(context.Background(), fresh)
	if err != nil || final.State != StateDone {
		t.Fatalf("job after quarantine: %v / %+v", err, final)
	}
	wantRuns, wantSummary, order := directRunsAndSummary(t, 1, fresh.Seed)
	assertRecordsMatchDirect(t, recsAfter, wantRuns, wantSummary, order)
}

// TestServedReplayErrorLandsFault serves a job whose replays return an
// error instead of panicking: each lands in the log as a "fault" record
// carrying the error, with no stack, ahead of the job's "error" terminal
// record, and nothing is quarantined. Between jobs the warm session's clock
// ladder is slowed a thousandfold, so its replays run to the end of the
// window without completing a lag and the matcher fails them.
func TestServedReplayErrorLandsFault(t *testing.T) {
	srv, client, _ := newTestServer(t, Options{Executors: 1, Workers: 1})
	ctx := context.Background()
	if _, final, err := client.RunJob(ctx, chaosJob); err != nil || final.State != StateDone {
		t.Fatalf("warm-up job: %v / %+v", err, final)
	}
	slowed := 0
	for _, e := range srv.execs {
		e.pool.EachRegistry(func(r *workload.SessionRegistry) {
			r.Each(func(_ string, s *workload.ReplaySession) {
				tbl := s.Dev.SoC.Cluster(0).Table()
				for i := range tbl {
					tbl[i].KHz /= 1000
				}
				slowed++
			})
		})
	}
	if slowed == 0 {
		t.Fatal("no warm sessions to slow")
	}

	fresh := chaosJob
	fresh.Seed = 97
	st, err := client.Submit(ctx, fresh)
	if err != nil {
		t.Fatal(err)
	}
	var recs []ResultRecord
	if err := client.StreamResults(ctx, st.ID, func(rec ResultRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(smallMatrix)+1 {
		t.Fatalf("log holds %d records, want a fault per replay and the terminal record: %+v", len(recs), recs)
	}
	seen := map[int]bool{}
	for _, rec := range recs[:len(smallMatrix)] {
		if rec.Type != "fault" || rec.Index == nil || rec.Stack != "" || !strings.Contains(rec.Error, "ending image not found") {
			t.Fatalf("record %+v, want a fault with the matcher's error and no stack", rec)
		}
		seen[*rec.Index] = true
	}
	if len(seen) != len(smallMatrix) {
		t.Errorf("faults cover indices %v, want each of %d replays once", seen, len(smallMatrix))
	}
	if last := recs[len(recs)-1]; last.Type != "error" || !strings.Contains(last.Error, "ending image not found") {
		t.Errorf("terminal record %+v, want the sweep's error", last)
	}
	stats := srv.Stats()
	if stats.JobsFailed != 1 || stats.RunPanics != 0 || stats.SessionQuarantines != 0 {
		t.Errorf("statsz failed=%d panics=%d quarantines=%d, want 1, 0 and 0",
			stats.JobsFailed, stats.RunPanics, stats.SessionQuarantines)
	}
}

// TestStallWatchdogShedsAndRecovers wedges the only executor's sweep and
// pins the degradation ladder: the watchdog fails the job as stalled, the
// executor turns unhealthy, /healthz answers 503 and submissions shed with
// 429 — then, once the wedged replay returns, the lane heals, the failed
// job's log stays as the verdict left it, and the lane serves the next job
// normally.
func TestStallWatchdogShedsAndRecovers(t *testing.T) {
	srv := mustNew(t, Options{Executors: 1, Workers: 1, QueueDepth: 4,
		StallTimeout: 150 * time.Millisecond})
	var wedge atomic.Bool
	release := make(chan struct{})
	srv.testHook = func(_ *job, kind string) {
		if kind == "start" && wedge.Load() {
			<-release
		}
	}
	hs, client, _ := mountServer(t, srv)

	wedge.Store(true)
	st, err := client.Submit(context.Background(), chaosJob)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "watchdog verdict", func() bool {
		got, err := client.Status(context.Background(), st.ID)
		return err == nil && got.State == StateFailed
	})
	got, err := client.Status(context.Background(), st.ID)
	if err != nil || !strings.Contains(got.Error, "stalled") {
		t.Fatalf("stalled job error %q (%v), want a stall verdict", got.Error, err)
	}

	stats, err := client.Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.JobsStalled != 1 || stats.HealthyExecutors != 0 {
		t.Fatalf("statsz stalled=%d healthy=%d, want 1/0", stats.JobsStalled, stats.HealthyExecutors)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with no healthy executors = %d, want 503", resp.StatusCode)
	}
	_, err = client.Submit(context.Background(), chaosJob)
	if !IsQueueFull(err) || !strings.Contains(err.Error(), "healthy") {
		t.Fatalf("submission while degraded returned %v, want a 429 shed", err)
	}
	if s, _ := client.Statsz(context.Background()); s.JobsShed != 1 {
		t.Fatalf("statsz jobs_shed = %d, want 1", s.JobsShed)
	}

	// Unwedge: the abandoned sweep returns, the lane heals, service resumes.
	wedge.Store(false)
	close(release)
	waitFor(t, 10*time.Second, "executor to heal", func() bool {
		return client.Healthz(context.Background()) == nil
	})
	// The released replay finished after the verdict; its record must not
	// land behind the terminal one (the journal, closed at the verdict,
	// would miss it, and live and recovered logs would disagree).
	if healed, err := client.Status(context.Background(), st.ID); err != nil || healed.Runs != got.Runs {
		t.Fatalf("stalled job's log went from %d to %d records after the lane healed (%v)", got.Runs, healed.Runs, err)
	}
	_, final, err := client.RunJob(context.Background(), chaosJob)
	if err != nil || final.State != StateDone {
		t.Fatalf("job after heal: %v / %+v", err, final)
	}
}

// TestCrashRecoveryResumesByteIdentical is the durability acceptance test:
// a server killed mid-sweep (journal frozen at the instant of death) and
// restarted on the same journal re-queues the interrupted job, re-executes
// it skipping the records that survived on disk, and serves a result log
// byte-identical to a server that was never interrupted. A second restart
// then recovers the finished job terminal, with the same log, without
// re-running anything.
func TestCrashRecoveryResumesByteIdentical(t *testing.T) {
	spec := JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: 5}
	resultsBody := func(t *testing.T, baseURL, id string) string {
		t.Helper()
		resp, err := http.Get(baseURL + "/jobs/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Reference: the uninterrupted run.
	srvRef := mustNew(t, Options{Executors: 1, Workers: 1, Journal: t.TempDir()})
	hsRef, clientRef, teardownRef := mountServer(t, srvRef)
	stRef, err := clientRef.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := resultsBody(t, hsRef.URL, stRef.ID) // follows to terminal
	teardownRef()

	// Crash run: kill the server the instant the second run record lands.
	dir := t.TempDir()
	srv1 := mustNew(t, Options{Executors: 1, Workers: 1, Journal: dir})
	srv1.testHook = func(j *job, kind string) {
		if kind != "run" {
			return
		}
		j.mu.Lock()
		n := len(j.records)
		j.mu.Unlock()
		if n == 2 {
			srv1.crash()
		}
	}
	_, client1, teardown1 := mountServer(t, srv1)
	st1, err := client1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "crashed job to settle", func() bool {
		got, err := client1.Status(context.Background(), st1.ID)
		return err == nil && Terminal(got.State)
	})
	teardown1()

	// Restart on the same journal: the job resumes and completes.
	srv2 := mustNew(t, Options{Executors: 1, Workers: 1, Journal: dir})
	hs2, client2, teardown2 := mountServer(t, srv2)
	if s := srv2.Stats(); s.JobsRequeued != 1 {
		t.Fatalf("statsz jobs_requeued = %d, want 1", s.JobsRequeued)
	}
	waitFor(t, 30*time.Second, "resumed job to finish", func() bool {
		got, err := client2.Status(context.Background(), st1.ID)
		return err == nil && got.State == StateDone
	})
	got := resultsBody(t, hs2.URL, st1.ID)
	if got != want {
		t.Errorf("resumed result log diverged from the uninterrupted run:\nwant %s\ngot  %s", want, got)
	}
	teardown2()

	// Second restart: the finished job comes back terminal, same log, no
	// re-execution.
	srv3 := mustNew(t, Options{Executors: 1, Workers: 1, Journal: dir})
	hs3, client3, _ := mountServer(t, srv3)
	if s := srv3.Stats(); s.JobsRecovered != 1 || s.JobsRequeued != 0 {
		t.Fatalf("statsz recovered=%d requeued=%d, want 1/0", s.JobsRecovered, s.JobsRequeued)
	}
	st3, err := client3.Status(context.Background(), st1.ID)
	if err != nil || st3.State != StateDone {
		t.Fatalf("recovered job status %v / %+v", err, st3)
	}
	if again := resultsBody(t, hs3.URL, st1.ID); again != want {
		t.Errorf("recovered result log diverged:\nwant %s\ngot  %s", want, again)
	}
}

// TestJournalTornWriteRecovery tears the journal write of one record
// mid-line (the disk-full / power-cut shape) and pins that restart recovery
// truncates the torn tail and still resumes the job to a result log
// byte-identical to the reference — lost durability costs re-execution of
// one replay, never correctness.
func TestJournalTornWriteRecovery(t *testing.T) {
	spec := JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 1, Seed: 5}

	srvRef := mustNew(t, Options{Executors: 1, Workers: 1})
	_, clientRef, teardownRef := mountServer(t, srvRef)
	wantRecs, final, err := clientRef.RunJob(context.Background(), spec)
	if err != nil || final.State != StateDone {
		t.Fatalf("reference run: %v / %+v", err, final)
	}
	teardownRef()

	dir := t.TempDir()
	srv1 := mustNew(t, Options{Executors: 1, Workers: 1, Journal: dir})
	plan := faultinject.NewPlan()
	plan.Arm("journal.write", 3) // meta line is write 1; tear the second record
	srv1.journal.testHookWrite = func(line []byte) []byte {
		if plan.Fire("journal.write") {
			return line[:len(line)/2] // torn mid-record, no trailing newline
		}
		return line
	}
	srv1.testHook = func(j *job, kind string) {
		if kind != "run" {
			return
		}
		j.mu.Lock()
		n := len(j.records)
		j.mu.Unlock()
		if n == 3 {
			srv1.crash()
		}
	}
	_, client1, teardown1 := mountServer(t, srv1)
	st1, err := client1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "crashed job to settle", func() bool {
		got, err := client1.Status(context.Background(), st1.ID)
		return err == nil && Terminal(got.State)
	})
	teardown1()

	srv2 := mustNew(t, Options{Executors: 1, Workers: 1, Journal: dir})
	_, client2, _ := mountServer(t, srv2)
	var gotRecs []ResultRecord
	waitFor(t, 30*time.Second, "resumed job to finish", func() bool {
		got, err := client2.Status(context.Background(), st1.ID)
		return err == nil && got.State == StateDone
	})
	if err := client2.StreamResults(context.Background(), st1.ID, func(rec ResultRecord) error {
		if rec.Type != "error" {
			gotRecs = append(gotRecs, rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, gotRecs) != mustJSON(t, wantRecs) {
		t.Errorf("result log after torn write diverged:\nwant %s\ngot  %s",
			mustJSON(t, wantRecs), mustJSON(t, gotRecs))
	}
}
