package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/soc"
	"repro/internal/workload"
)

// smallMatrix is the "small dragonboard matrix" the end-to-end and load
// tests sweep: three fixed frequencies (the oracle's candidate set) plus one
// governor, one rep — a real sweep, small enough to run dozens of times in
// a test budget.
var smallMatrix = []string{"0.30 GHz", "0.96 GHz", "2.15 GHz", "ondemand"}

// newTestServer boots a qoed server on an in-process loopback listener and
// returns the server, the matching client, and an idempotent teardown (also
// cleanup-registered, so tests that assert on goroutine counts can tear
// down early and explicitly).
func newTestServer(t *testing.T, opts Options) (*Server, *Client, func()) {
	t.Helper()
	srv := mustNew(t, opts)
	_, client, teardown := mountServer(t, srv)
	return srv, client, teardown
}

// mustNew builds a server or fails the test.
func mustNew(t *testing.T, opts Options) *Server {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// mountServer exposes an already-constructed server (for tests that install
// hooks before traffic) on a loopback listener.
func mountServer(t *testing.T, srv *Server) (*httptest.Server, *Client, func()) {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	var once sync.Once
	teardown := func() {
		once.Do(func() {
			hs.Close()
			srv.Close()
		})
	}
	t.Cleanup(teardown)
	return hs, &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}, teardown
}

// baselineGoroutines snapshots the goroutine count and returns an assertion
// that the count settles back to it (poll-with-deadline: streams, executors
// and HTTP conns unwind asynchronously after Close).
func baselineGoroutines(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		var n int
		for time.Now().Before(deadline) {
			runtime.GC() // flush finalizer-held conns
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("goroutines leaked: %d at start, %d after settle window", base, n)
	}
}

// TestServerMatrixBitIdenticalToDirect is the end-to-end determinism gate:
// a job submitted over HTTP, executed on the server's warm pools and
// streamed back as NDJSON must yield byte-identical run records and summary
// to a direct experiment.RunMatrix call with the same spec — serving must
// not perturb the simulation.
func TestServerMatrixBitIdenticalToDirect(t *testing.T) {
	checkLeaks := baselineGoroutines(t)
	_, client, teardown := newTestServer(t, Options{Executors: 1, Workers: 2, QueueDepth: 4})

	spec := JobSpec{Workload: "quickstart", SoC: "dragonboard", Configs: smallMatrix, Reps: 2, Seed: 9}
	recs, final, err := client.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final state %q, want %q", final.State, StateDone)
	}

	direct, err := experiment.RunMatrix(workload.Quickstart(), soc.Dragonboard(),
		experiment.Options{Reps: 2, Seed: 9, Configs: smallMatrix})
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := report.MatrixRunRecords(direct)

	var gotRuns []report.RunRecord
	var gotSummary *report.MatrixSummary
	for _, rec := range recs {
		switch rec.Type {
		case "run":
			gotRuns = append(gotRuns, *rec.Run)
		case "summary":
			gotSummary = rec.Summary
		case "candidate":
			// Single-cluster sweeps reuse fixed runs as candidates; no
			// candidate records should appear.
			t.Errorf("unexpected candidate record %q", rec.Candidate)
		}
	}
	if len(gotRuns) != len(wantRuns) {
		t.Fatalf("streamed %d run records, want %d", len(gotRuns), len(wantRuns))
	}
	// Streaming is completion-ordered; sort back into the deterministic
	// sweep order before comparing.
	report.SortRunRecords(gotRuns, direct.ConfigNames())
	for i := range wantRuns {
		want := mustJSON(t, wantRuns[i])
		got := mustJSON(t, gotRuns[i])
		if want != got {
			t.Errorf("run record %d differs:\nserver: %s\ndirect: %s", i, got, want)
		}
	}

	if gotSummary == nil {
		t.Fatal("no summary record streamed")
	}
	wantSummary := report.NewMatrixSummary(direct)
	if mustJSON(t, *gotSummary) != mustJSON(t, wantSummary) {
		t.Errorf("summary differs:\nserver: %s\ndirect: %s",
			mustJSON(t, *gotSummary), mustJSON(t, wantSummary))
	}

	if final.TotalRuns == 0 || final.Runs == 0 {
		t.Errorf("final status runs=%d total=%d, want both > 0", final.Runs, final.TotalRuns)
	}
	teardown()
	checkLeaks()
}

// TestServerBigLittleJobStreamsCandidates pins the multi-cluster serve path:
// candidate progress records appear, the summary carries oracle cluster
// shares, and the result is again bit-identical to the direct sweep.
func TestServerBigLittleJobStreamsCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("full big.LITTLE sweep over HTTP")
	}
	_, client, _ := newTestServer(t, Options{Executors: 1, Workers: 4, QueueDepth: 4})
	sel := []string{"2.15 GHz", "interactive/ondemand"}
	recs, final, err := client.RunJob(context.Background(),
		JobSpec{Workload: "quickstart", SoC: "biglittle", Configs: sel, Reps: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final state %q", final.State)
	}
	direct, err := experiment.RunMatrix(workload.Quickstart(), soc.BigLittle44(),
		experiment.Options{Reps: 1, Seed: 3, Configs: sel})
	if err != nil {
		t.Fatal(err)
	}
	var runs, cands int
	var sum *report.MatrixSummary
	for _, rec := range recs {
		switch rec.Type {
		case "run":
			runs++
		case "candidate":
			cands++
		case "summary":
			sum = rec.Summary
		}
	}
	wantCands := 0
	for _, cs := range soc.BigLittle44().Clusters {
		wantCands += len(cs.Table)
	}
	if cands != wantCands {
		t.Errorf("%d candidate records, want %d", cands, wantCands)
	}
	if runs != len(sel) {
		t.Errorf("%d run records, want %d", runs, len(sel))
	}
	if sum == nil {
		t.Fatal("no summary")
	}
	if mustJSON(t, *sum) != mustJSON(t, report.NewMatrixSummary(direct)) {
		t.Errorf("summary differs from direct sweep:\nserver: %s\ndirect: %s",
			mustJSON(t, *sum), mustJSON(t, report.NewMatrixSummary(direct)))
	}
	if len(sum.OracleShares) != 2 {
		t.Errorf("oracle shares %v, want per-cluster pair", sum.OracleShares)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// directRunsAndSummary computes the ground truth a served sweep must match:
// the direct experiment.RunMatrix run records and summary for the small
// dragonboard matrix.
func directRunsAndSummary(t *testing.T, reps int, seed uint64) ([]report.RunRecord, report.MatrixSummary, []string) {
	t.Helper()
	direct, err := experiment.RunMatrix(workload.Quickstart(), soc.Dragonboard(),
		experiment.Options{Reps: reps, Seed: seed, Configs: smallMatrix})
	if err != nil {
		t.Fatal(err)
	}
	return report.MatrixRunRecords(direct), report.NewMatrixSummary(direct), direct.ConfigNames()
}

// assertRecordsMatchDirect sorts streamed records into deterministic sweep
// order and requires them byte-identical to the direct ground truth.
func assertRecordsMatchDirect(t *testing.T, recs []ResultRecord, wantRuns []report.RunRecord, wantSummary report.MatrixSummary, configOrder []string) {
	t.Helper()
	var gotRuns []report.RunRecord
	var gotSummary *report.MatrixSummary
	for _, rec := range recs {
		switch rec.Type {
		case "run":
			gotRuns = append(gotRuns, *rec.Run)
		case "summary":
			gotSummary = rec.Summary
		}
	}
	if len(gotRuns) != len(wantRuns) {
		t.Fatalf("got %d run records, want %d", len(gotRuns), len(wantRuns))
	}
	report.SortRunRecords(gotRuns, configOrder)
	for i := range wantRuns {
		if got, want := mustJSON(t, gotRuns[i]), mustJSON(t, wantRuns[i]); got != want {
			t.Errorf("run record %d differs:\nserver: %s\ndirect: %s", i, got, want)
		}
	}
	if gotSummary == nil {
		t.Fatal("no summary record")
	}
	if got, want := mustJSON(t, *gotSummary), mustJSON(t, wantSummary); got != want {
		t.Errorf("summary differs:\nserver: %s\ndirect: %s", got, want)
	}
}

// TestStreamResumeBitIdentical is the resume determinism gate: a stream cut
// by a client disconnect mid-job and resumed with ?from= must splice into
// exactly the record sequence of an uninterrupted stream — and that spliced
// sequence must still be bit-identical to the direct experiment.RunMatrix
// sweep. Resumption must not duplicate, drop or reorder records.
func TestStreamResumeBitIdentical(t *testing.T) {
	checkLeaks := baselineGoroutines(t)
	gate := make(chan struct{})
	var hookOnce, gateOnce sync.Once
	releaseGate := func() { gateOnce.Do(func() { close(gate) }) }
	srv := mustNew(t, Options{Executors: 1, Workers: 1, QueueDepth: 4})
	// Hold the (single-worker) sweep after its first record so the hangup
	// provably lands mid-job: the resumed stream then follows a live log,
	// not a finished buffer.
	srv.testHook = func(_ *job, kind string) {
		if kind == "run" {
			hookOnce.Do(func() { <-gate })
		}
	}
	_, client, teardown := mountServer(t, srv)
	// Cleanups run LIFO: the gate opens before mountServer's teardown
	// waits out the executors, so no failure path can wedge Close.
	t.Cleanup(releaseGate)
	ctx := context.Background()

	const reps, seed = 2, 9
	st, err := client.Submit(ctx, JobSpec{Workload: "quickstart", SoC: "dragonboard", Configs: smallMatrix, Reps: reps, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	// First leg: take exactly one record, then hang up (fn error aborts
	// the stream; the response body closes, the server sees a disconnect).
	errHangup := errors.New("client hangs up")
	var recs []ResultRecord
	err = client.StreamResults(ctx, st.ID, func(rec ResultRecord) error {
		recs = append(recs, rec)
		return errHangup
	})
	if !errors.Is(err, errHangup) {
		t.Fatalf("first leg ended %v, want the deliberate hangup", err)
	}
	if len(recs) != 1 {
		t.Fatalf("first leg delivered %d records, want 1", len(recs))
	}
	releaseGate() // let the sweep finish while no one is watching

	// Second leg: resume from the exact record index where the first leg
	// stopped; the splice must complete the log with no overlap.
	err = client.StreamResultsFrom(ctx, st.ID, len(recs), func(rec ResultRecord) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	wantRuns, wantSummary, configOrder := directRunsAndSummary(t, reps, seed)
	if len(recs) != len(wantRuns)+1 {
		t.Fatalf("spliced stream carried %d records, want %d runs + 1 summary (resume duplicated or dropped)",
			len(recs), len(wantRuns))
	}
	assertRecordsMatchDirect(t, recs, wantRuns, wantSummary, configOrder)
	teardown()
	checkLeaks()
}

// flakyTransport cuts the body of the first /results response after a few
// bytes — a connection reset mid-NDJSON-line, the failure a real network
// gives a streaming client. Later requests pass through untouched.
type flakyTransport struct {
	base    http.RoundTripper
	tripped atomic.Bool
}

var errFlakyCut = errors.New("flaky transport: connection reset")

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.base.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/results") {
		return resp, err
	}
	if f.tripped.CompareAndSwap(false, true) {
		resp.Body = &cutBody{rc: resp.Body, remaining: 150}
	}
	return resp, err
}

// cutBody yields remaining bytes, then fails every read.
type cutBody struct {
	rc        io.ReadCloser
	remaining int
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, errFlakyCut
	}
	if len(p) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.rc.Read(p)
	c.remaining -= n
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }

// TestRunJobResumesBrokenStream pins the client's auto-resume: RunJob over a
// transport that resets the first result stream mid-line must deliver the
// complete, bit-identical record set anyway — the retry resumes from the
// last fully-parsed record, and the cut partial line is re-read, not lost.
func TestRunJobResumesBrokenStream(t *testing.T) {
	srv := mustNew(t, Options{Executors: 1, Workers: 2, QueueDepth: 4})
	hs, plain, teardown := mountServer(t, srv)
	base := plain.HTTPClient.Transport
	if base == nil {
		base = http.DefaultTransport
	}
	client := &Client{
		BaseURL:    hs.URL,
		HTTPClient: &http.Client{Transport: &flakyTransport{base: base}},
	}

	const reps, seed = 2, 9
	recs, final, err := client.RunJob(context.Background(),
		JobSpec{Workload: "quickstart", SoC: "dragonboard", Configs: smallMatrix, Reps: reps, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final state %q", final.State)
	}

	wantRuns, wantSummary, configOrder := directRunsAndSummary(t, reps, seed)
	if len(recs) != len(wantRuns)+1 {
		t.Fatalf("RunJob over the flaky transport yielded %d records, want %d runs + 1 summary",
			len(recs), len(wantRuns))
	}
	assertRecordsMatchDirect(t, recs, wantRuns, wantSummary, configOrder)
	teardown()
}
