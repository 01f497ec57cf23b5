package serve

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestFollowSpliceDeterministic pins the resume contract at the log layer:
// reading the result log in two halves split at ANY index yields exactly the
// bytes of one uninterrupted read. This is what makes ?from= resumption
// seamless — the log is append-only, so offsets never shift under a reader.
func TestFollowSpliceDeterministic(t *testing.T) {
	j := newJob("job-1", 1, JobSpec{Workload: "quickstart"}, time.Now())
	const n = 7
	for i := 0; i < n; i++ {
		j.append(ResultRecord{Type: "candidate", Candidate: fmt.Sprintf("c%d", i), Rep: i})
	}
	j.finish(StateDone, "", &ResultRecord{Type: "summary"}, time.Now(), nil)

	whole, terminal, _ := j.follow(0)
	if !terminal {
		t.Fatal("finished job not terminal")
	}
	if len(whole) != n+1 {
		t.Fatalf("log has %d records, want %d", len(whole), n+1)
	}
	var want bytes.Buffer
	for _, raw := range whole {
		want.Write(raw)
		want.WriteByte('\n')
	}

	for split := 0; split <= n+1; split++ {
		var got bytes.Buffer
		head, _, _ := j.follow(0)
		for _, raw := range head[:split] {
			got.Write(raw)
			got.WriteByte('\n')
		}
		tail, terminal, _ := j.follow(split)
		if !terminal {
			t.Fatalf("split %d: resumed read lost the terminal flag", split)
		}
		for _, raw := range tail {
			got.Write(raw)
			got.WriteByte('\n')
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("split %d: spliced read differs from whole read", split)
		}
	}

	// Reading past the end of a terminal log yields nothing, terminally.
	past, terminal, _ := j.follow(n + 5)
	if len(past) != 0 || !terminal {
		t.Errorf("follow past end: %d records, terminal %v; want 0 and true", len(past), terminal)
	}
}

// TestFinishIdempotent pins that only the first terminal transition wins: a
// cancel racing a natural completion must not flip the state or double-log a
// terminal record.
func TestFinishIdempotent(t *testing.T) {
	j := newJob("job-1", 1, JobSpec{}, time.Now())
	j.start(func() {}, 0, time.Now())
	if !j.finish(StateDone, "", &ResultRecord{Type: "summary"}, time.Now(), nil) {
		t.Fatal("first finish refused")
	}
	if j.finish(StateCancelled, "late cancel", &ResultRecord{Type: "error", Error: "late"}, time.Now(), nil) {
		t.Fatal("second finish won")
	}
	if st := j.status(); st.State != StateDone || st.Error != "" {
		t.Errorf("state %q error %q after late cancel, want done and empty", st.State, st.Error)
	}
	if recs, _, _ := j.follow(0); len(recs) != 1 {
		t.Errorf("log has %d records after late cancel, want 1", len(recs))
	}
}

// TestRequestCancelSemantics pins the tri-state contract: a queued job is
// reported back for the caller to finish, a running one has its context
// cancelled and is left to its executor, and a terminal one is ignored.
func TestRequestCancelSemantics(t *testing.T) {
	queued := newJob("job-1", 1, JobSpec{}, time.Now())
	if !queued.requestCancel() {
		t.Error("queued cancel should hand the finish to the caller")
	}
	if st := queued.status(); st.State != StateQueued {
		t.Errorf("queued job state %q after cancel; the caller owns the terminal transition", st.State)
	}

	running := newJob("job-2", 2, JobSpec{}, time.Now())
	fired := false
	running.start(func() { fired = true }, 0, time.Now())
	if running.requestCancel() {
		t.Error("running cancel should defer the finish to the executor")
	}
	if !fired {
		t.Error("running cancel did not fire the job context cancel")
	}
	if st := running.status(); st.State != StateRunning {
		t.Errorf("running job state %q; the executor owns the terminal transition", st.State)
	}

	fired = false
	if running.finish(StateCancelled, "job cancelled", nil, time.Now(), nil); running.requestCancel() || fired {
		t.Error("terminal cancel should be a no-op")
	}
}

// TestFinishSettlesBeforeRelease pins the order inside a terminal
// transition: settle runs while the terminal state is not yet observable —
// done is still open and a reader blocks on the job's lock — so whatever it
// counts is counted before any client sees the terminal record.
func TestFinishSettlesBeforeRelease(t *testing.T) {
	j := newJob("job-1", 1, JobSpec{}, time.Now())
	settled := false
	j.finish(StateDone, "", &ResultRecord{Type: "summary"}, time.Now(), func() {
		settled = true
		select {
		case <-j.done:
			t.Error("done closed before settle ran")
		default:
		}
		if j.mu.TryLock() {
			j.mu.Unlock()
			t.Error("settle ran without the job lock held")
		}
	})
	if !settled {
		t.Fatal("settle did not run")
	}
	if j.finish(StateFailed, "late", nil, time.Now(), func() { t.Error("settle ran on a losing finish") }) {
		t.Error("second finish won")
	}
}
