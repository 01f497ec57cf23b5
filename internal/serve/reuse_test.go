package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/population"
	"repro/internal/report"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// resultsBody reads a job's whole result log, following it to its terminal
// record, as the raw NDJSON bytes a client receives.
func resultsBody(t *testing.T, baseURL, id string) string {
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

// runTwice submits spec, then again once the first job is done, and returns
// both jobs' result logs as served, with the server's stats after each job.
func runTwice(t *testing.T, srv *Server, hs string, client *Client, first, second JobSpec) (a, b string, sa, sb Stats) {
	t.Helper()
	ctx := context.Background()
	var logs [2]string
	var stats [2]Stats
	for i, spec := range []JobSpec{first, second} {
		st, err := client.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = resultsBody(t, hs, st.ID)
		final, err := client.Status(ctx, st.ID)
		if err != nil || final.State != StateDone {
			t.Fatalf("job %d: %v / %+v", i, err, final)
		}
		stats[i] = srv.Stats()
	}
	return logs[0], logs[1], stats[0], stats[1]
}

// decodeLog parses an NDJSON result log.
func decodeLog(t *testing.T, body string) []ResultRecord {
	t.Helper()
	var recs []ResultRecord
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var rec ResultRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestReuseRepeatedMatrixJob submits one matrix spec twice: the second job
// copies the first one's log, so it streams the same bytes, which equal the
// direct sweep, without a fork.
func TestReuseRepeatedMatrixJob(t *testing.T) {
	srv := mustNew(t, Options{Executors: 1, Workers: 2, Journal: t.TempDir()})
	hs, client, _ := mountServer(t, srv)
	spec := JobSpec{Workload: "quickstart", Configs: smallMatrix, Reps: 2, Seed: 11}
	first, second, s1, s2 := runTwice(t, srv, hs.URL, client, spec, spec)
	if second != first {
		t.Errorf("repeated job's log differs from the first:\nfirst  %s\nsecond %s", first, second)
	}
	if s2.JobsReused != 1 || s2.JobsDone != 2 {
		t.Errorf("statsz jobs_reused=%d jobs_done=%d, want 1 and 2", s2.JobsReused, s2.JobsDone)
	}
	if !reflect.DeepEqual(s2.Forks, s1.Forks) {
		t.Errorf("the repeated job forked: forks %v, then %v", s1.Forks, s2.Forks)
	}
	wantRuns, wantSummary, order := directRunsAndSummary(t, 2, 11)
	assertRecordsMatchDirect(t, decodeLog(t, second), wantRuns, wantSummary, order)
}

// TestReuseRepeatedPopulationJob is the same for a population spec: the
// copy streams the first job's bytes, which carry the direct
// RunPopulation's records in its global order.
func TestReuseRepeatedPopulationJob(t *testing.T) {
	srv := mustNew(t, Options{Executors: 1, Workers: 2, Journal: t.TempDir()})
	hs, client, _ := mountServer(t, srv)
	model := population.DefaultModel()
	spec := JobSpec{Workload: "quickstart", Configs: []string{"2.15 GHz", "ondemand"}, Seed: 7,
		Units: 2, Population: &model, ThermalTripC: -1}
	first, second, s1, s2 := runTwice(t, srv, hs.URL, client, spec, spec)
	if second != first {
		t.Errorf("repeated job's log differs from the first:\nfirst  %s\nsecond %s", first, second)
	}
	if s2.JobsReused != 1 || !reflect.DeepEqual(s2.Forks, s1.Forks) {
		t.Errorf("statsz jobs_reused=%d forks %v → %v, want 1 and unchanged", s2.JobsReused, s1.Forks, s2.Forks)
	}

	socSpec, err := SpecByName(spec.SoC, spec.Idle)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	res, err := experiment.RunPopulation(workload.ByName(spec.Workload), socSpec, experiment.PopulationOptions{
		Options:     experiment.Options{Reps: 1, Seed: 7, Configs: spec.Configs},
		Units:       2,
		Model:       model,
		BaseThermal: thermal.PhoneConfig(len(socSpec.Clusters), spec.ThermalTripC, 0),
		OnPop: func(pr experiment.PopRun) {
			rec := report.NewPopRunRecord(pr)
			idx := pr.Index
			want = append(want, mustJSON(t, ResultRecord{Type: "pop", Pop: &rec, Index: &idx}))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := report.NewPopulationSummary(res)
	want = append(want, mustJSON(t, ResultRecord{Type: "summary", Population: &sum}))
	var got []string
	for _, rec := range decodeLog(t, second) {
		got = append(got, mustJSON(t, rec))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("repeated population job differs from the direct sweep:\ngot  %v\nwant %v", got, want)
	}
}

// TestReuseKeyNormalisation pins which spec differences a finished job's
// log answers: the defaults and fields that cannot change a result do not
// count, every input of the sweep does.
func TestReuseKeyNormalisation(t *testing.T) {
	model := population.DefaultModel()
	base := JobSpec{Workload: "quickstart", Configs: smallMatrix}
	pop := JobSpec{Workload: "quickstart", Units: 2}
	with := func(s JobSpec, edit func(*JobSpec)) JobSpec { edit(&s); return s }
	same := []JobSpec{
		with(base, func(s *JobSpec) { s.Seed = 1 }),
		with(base, func(s *JobSpec) { s.Reps = 1 }),
		with(base, func(s *JobSpec) { s.SoC = "dragonboard" }),
		with(base, func(s *JobSpec) { s.TimeoutMS = 5000 }),
		with(base, func(s *JobSpec) { s.ThermalTripC = 60 }),
	}
	for _, s := range same {
		if reuseKey(s) != reuseKey(base) {
			t.Errorf("%+v does not reuse %+v", s, base)
		}
	}
	if k := reuseKey(with(pop, func(s *JobSpec) { s.Population = &population.Model{} })); k != reuseKey(pop) {
		t.Errorf("the zero population model does not reuse a nil one")
	}
	differ := []JobSpec{
		with(base, func(s *JobSpec) { s.Seed = 2 }),
		with(base, func(s *JobSpec) { s.Reps = 2 }),
		with(base, func(s *JobSpec) { s.SoC = "biglittle" }),
		with(base, func(s *JobSpec) { s.Idle = true }),
		with(base, func(s *JobSpec) { s.Workload = "dataset01" }),
		with(base, func(s *JobSpec) { s.Configs = smallMatrix[:3] }),
		with(base, func(s *JobSpec) { s.Units = 2 }),
	}
	for _, s := range differ {
		if reuseKey(s) == reuseKey(base) {
			t.Errorf("%+v reuses %+v", s, base)
		}
	}
	for _, s := range []JobSpec{
		with(pop, func(s *JobSpec) { s.Population = &model }),
		with(pop, func(s *JobSpec) { s.ThermalTripC = -1 }),
		with(pop, func(s *JobSpec) { s.Units = 3 }),
	} {
		if reuseKey(s) == reuseKey(pop) {
			t.Errorf("%+v reuses %+v", s, pop)
		}
	}
}

// TestReuseIgnoresTimeoutNotSeed serves a spec, then one that differs only
// in timeout_ms (reused), then one with another seed (swept).
func TestReuseIgnoresTimeoutNotSeed(t *testing.T) {
	srv := mustNew(t, Options{Executors: 1, Workers: 2})
	hs, client, _ := mountServer(t, srv)
	spec := JobSpec{Workload: "quickstart", Configs: smallMatrix}
	timed := spec
	timed.TimeoutMS = 60_000
	first, second, _, s := runTwice(t, srv, hs.URL, client, spec, timed)
	if second != first || s.JobsReused != 1 {
		t.Fatalf("timeout-only change: reused %d, logs equal %t; want 1 and true", s.JobsReused, second == first)
	}
	reseeded := spec
	reseeded.Seed = 2
	_, third, _, s3 := runTwice(t, srv, hs.URL, client, spec, reseeded)
	if s3.JobsReused != 2 { // the repeat of spec, not the new seed
		t.Errorf("statsz jobs_reused = %d, want 2", s3.JobsReused)
	}
	if third == first {
		t.Error("another seed served the first seed's log")
	}
}

// TestReuseNeverFromFailedCancelledOrEvicted pins the sources a job never
// copies: a failed job, a cancelled job, an evicted job and a twin still
// running. Each repeat sweeps, and matches the direct sweep.
func TestReuseNeverFromFailedCancelledOrEvicted(t *testing.T) {
	ctx := context.Background()
	spec := JobSpec{Workload: "quickstart", Configs: smallMatrix, Seed: 21}
	wantRuns, wantSummary, order := directRunsAndSummary(t, 1, 21)
	repeat := func(t *testing.T, srv *Server, client *Client) {
		t.Helper()
		recs, final, err := client.RunJob(ctx, spec)
		if err != nil || final.State != StateDone {
			t.Fatalf("repeat: %v / %+v", err, final)
		}
		if n := srv.Stats().JobsReused; n != 0 {
			t.Fatalf("statsz jobs_reused = %d, want 0", n)
		}
		assertRecordsMatchDirect(t, recs, wantRuns, wantSummary, order)
	}

	t.Run("failed", func(t *testing.T) {
		srv := mustNew(t, Options{Executors: 1, Workers: 1})
		var stall sync.Once
		srv.testHook = func(j *job, kind string) {
			if kind == "start" && j.seq == 1 {
				stall.Do(func() { time.Sleep(200 * time.Millisecond) })
			}
		}
		_, client, _ := mountServer(t, srv)
		timed := spec
		timed.TimeoutMS = 50
		st, err := client.Submit(ctx, timed)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "deadline", func() bool {
			got, err := client.Status(ctx, st.ID)
			return err == nil && got.State == StateFailed
		})
		repeat(t, srv, client)
	})

	t.Run("cancelled", func(t *testing.T) {
		srv := mustNew(t, Options{Executors: 1, Workers: 1})
		gate := make(chan struct{})
		srv.testHook = func(j *job, kind string) {
			if kind == "start" && j.seq == 1 {
				<-gate
			}
		}
		_, client, _ := mountServer(t, srv)
		st, err := client.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, client, st.ID, StateRunning)
		if _, err := client.Cancel(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		close(gate)
		waitFor(t, 10*time.Second, "cancel", func() bool {
			got, err := client.Status(ctx, st.ID)
			return err == nil && got.State == StateCancelled
		})
		repeat(t, srv, client)
	})

	t.Run("evicted", func(t *testing.T) {
		srv, client, _ := newTestServer(t, Options{Executors: 1, Workers: 1, RetainJobs: 1})
		for _, s := range []JobSpec{spec, {Workload: "quickstart", Configs: smallMatrix, Seed: 22}} {
			if _, final, err := client.RunJob(ctx, s); err != nil || final.State != StateDone {
				t.Fatalf("%v / %+v", err, final)
			}
		}
		if n := srv.Stats().JobsEvicted; n != 1 {
			t.Fatalf("statsz jobs_evicted = %d, want 1", n)
		}
		repeat(t, srv, client)
	})

	t.Run("twin-running", func(t *testing.T) {
		srv := mustNew(t, Options{Executors: 2, Workers: 1})
		gate := make(chan struct{})
		srv.testHook = func(j *job, kind string) {
			if kind == "start" && j.seq == 1 {
				<-gate
			}
		}
		_, client, _ := mountServer(t, srv)
		st, err := client.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, client, st.ID, StateRunning)
		repeat(t, srv, client) // sweeps on the other executor meanwhile
		close(gate)
		waitState(t, client, st.ID, StateDone)
	})
}

// TestReuseAfterRestartByteIdentical crashes a journaling server after a
// repeated job copied its twin's log: on restart both come back done with
// the log they streamed. Recovered jobs are no sources, so the same spec
// submitted after the restart sweeps, to the same bytes.
func TestReuseAfterRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Workload: "quickstart", Configs: smallMatrix, Seed: 5}
	srv1 := mustNew(t, Options{Executors: 1, Workers: 1, Journal: dir})
	hs1, client1, teardown1 := mountServer(t, srv1)
	first, second, _, s := runTwice(t, srv1, hs1.URL, client1, spec, spec)
	if s.JobsReused != 1 || second != first {
		t.Fatalf("before the crash: reused %d, logs equal %t; want 1 and true", s.JobsReused, second == first)
	}
	srv1.crash()
	teardown1()

	srv2 := mustNew(t, Options{Executors: 1, Workers: 1, Journal: dir})
	hs2, client2, _ := mountServer(t, srv2)
	if st := srv2.Stats(); st.JobsRecovered != 2 || st.JobsRequeued != 0 {
		t.Fatalf("statsz recovered=%d requeued=%d, want 2 and 0", st.JobsRecovered, st.JobsRequeued)
	}
	for _, id := range []string{"job-1", "job-2"} {
		st, err := client2.Status(context.Background(), id)
		if err != nil || st.State != StateDone {
			t.Fatalf("recovered %s: %v / %+v", id, err, st)
		}
		if got := resultsBody(t, hs2.URL, id); got != first {
			t.Errorf("recovered %s log diverged:\nwant %s\ngot  %s", id, first, got)
		}
	}
	st, err := client2.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsBody(t, hs2.URL, st.ID); got != first {
		t.Errorf("the spec swept after the restart diverged:\nwant %s\ngot  %s", first, got)
	}
	if n := srv2.Stats().JobsReused; n != 0 {
		t.Errorf("a recovered job was a source: jobs_reused = %d", n)
	}
}

// TestResumedJobNeverReuses pins both halves of the rule that a job resumed
// from the journal has no part in reuse: it sweeps even when a source for
// its spec exists, since its log already holds records, and once done it is
// no source, since those records came from another process.
func TestResumedJobNeverReuses(t *testing.T) {
	spec := JobSpec{Workload: "quickstart", Configs: smallMatrix, Seed: 41}
	srv := mustNew(t, Options{Executors: 1, Workers: 1})
	src := newJob("job-1", 1, spec, time.Now())
	srv.sources[src.key] = src
	if srv.source(newJob("job-2", 2, spec, time.Now())) != src {
		t.Fatal("a fresh job found no source")
	}
	resumed := jobFromRecovered(&RecoveredJob{Meta: journalMeta{ID: "job-3", Seq: 3, Spec: spec}})
	if srv.source(resumed) != nil {
		t.Error("a resumed job found a source")
	}
	srv.Close()

	// Crash mid-sweep, restart, let the job resume to done, then submit
	// its spec again: the repeat sweeps.
	dir := t.TempDir()
	srv1 := mustNew(t, Options{Executors: 1, Workers: 1, Journal: dir})
	srv1.testHook = func(j *job, kind string) {
		if kind == "run" {
			srv1.crash()
		}
	}
	_, client1, teardown1 := mountServer(t, srv1)
	st, err := client1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "crashed job to settle", func() bool {
		got, err := client1.Status(context.Background(), st.ID)
		return err == nil && Terminal(got.State)
	})
	teardown1()
	srv2 := mustNew(t, Options{Executors: 1, Workers: 1, Journal: dir})
	hs2, client2, _ := mountServer(t, srv2)
	if n := srv2.Stats().JobsRequeued; n != 1 {
		t.Fatalf("statsz jobs_requeued = %d, want 1", n)
	}
	resumedLog := resultsBody(t, hs2.URL, st.ID)
	again, err := client2.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsBody(t, hs2.URL, again.ID); got != resumedLog {
		t.Errorf("the repeat diverged from the resumed job:\nwant %s\ngot  %s", resumedLog, got)
	}
	if n := srv2.Stats().JobsReused; n != 0 {
		t.Errorf("a resumed job was a source: jobs_reused = %d", n)
	}
}

// TestReuseConcurrentRepeats submits a few specs many times from concurrent
// clients on two executors, so sources are set, looked up and copied while
// other jobs sweep and finish (run it under -race). Every job of a spec
// must stream the same bytes.
func TestReuseConcurrentRepeats(t *testing.T) {
	srv := mustNew(t, Options{Executors: 2, Workers: 1, QueueDepth: 32, Journal: t.TempDir()})
	hs, client, _ := mountServer(t, srv)
	const specs, repeats = 3, 4
	logs := make([][]string, specs)
	for i := range logs {
		logs[i] = make([]string, repeats)
	}
	var wg sync.WaitGroup
	for i := 0; i < specs; i++ {
		for r := 0; r < repeats; r++ {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				st, err := client.Submit(context.Background(),
					JobSpec{Workload: "quickstart", Configs: smallMatrix, Seed: uint64(31 + i)})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Get(hs.URL + "/jobs/" + st.ID + "/results")
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Error(err)
				}
				logs[i][r] = string(body)
			}(i, r)
		}
	}
	wg.Wait()
	for i, l := range logs {
		for r := 1; r < repeats; r++ {
			if l[r] != l[0] {
				t.Errorf("spec %d: job %d streamed another log:\nwant %s\ngot  %s", i, r, l[0], l[r])
			}
		}
	}
	// Two executors run at most two of a spec's jobs at once, so its third
	// starts after one of the first two finished, and copies it.
	st := srv.Stats()
	if st.JobsDone != specs*repeats || st.JobsReused < specs {
		t.Errorf("statsz done=%d reused=%d, want %d done and at least %d reused",
			st.JobsDone, st.JobsReused, specs*repeats, specs)
	}
}
