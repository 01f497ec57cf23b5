package serve

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// job is the server-side state of one sweep job. The mutex guards every
// mutable field; the result log is append-only and notify is a broadcast
// channel replaced on every append, so any number of streaming readers can
// follow the log without the writer tracking them.
//
// When the server journals, the job owns the append handle to its journal
// file: every record lands on disk (CRC-framed, synced) under the same lock
// that appends it to the memory log, so the durable log and the streamed log
// never disagree on order. durable holds the sweep indices recovered from
// disk after a crash — re-execution replays the whole sweep (replays are
// deterministic) but appends only the records whose index never made it to
// disk, which is what makes a resumed result log carry every record exactly
// once.
type job struct {
	id   string
	seq  int // submission order, drives the newest-first listing
	spec JobSpec
	key  string // reuseKey(spec)

	// progress is the unix-nano timestamp of the job's last sign of life
	// (job start, replay update, record append). The stall watchdog
	// compares it against the stall timeout; atomic so workers never
	// contend with the watchdog.
	progress atomic.Int64

	mu        sync.Mutex
	state     string
	errMsg    string
	totalRuns int
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // non-nil while running
	records   []json.RawMessage  // marshalled ResultRecords, append-only
	notify    chan struct{}      // closed+replaced on every append/state change
	done      chan struct{}      // closed when the job reaches a terminal state
	jf        *jobFile           // journal append handle, nil when not journaling
	durable   map[int]bool       // sweep indices already on disk (crash resume)
}

func newJob(id string, seq int, spec JobSpec, now time.Time) *job {
	return &job{
		id:      id,
		seq:     seq,
		spec:    spec,
		key:     reuseKey(spec),
		state:   StateQueued,
		created: now,
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// jobFromRecovered rebuilds a job out of its journal. Terminal jobs come
// back finished with their full record log; interrupted jobs come back
// queued with the durable records pre-loaded and indexed for resume.
func jobFromRecovered(rj *RecoveredJob) *job {
	j := newJob(rj.Meta.ID, rj.Meta.Seq, rj.Meta.Spec, time.UnixMilli(rj.Meta.CreatedMS))
	j.records = rj.Records
	if rj.State != nil {
		j.state = rj.State.State
		j.errMsg = rj.State.Error
		j.finished = time.UnixMilli(rj.State.FinishedMS)
		close(j.done)
		return j
	}
	j.durable = make(map[int]bool, len(rj.Records))
	for _, raw := range rj.Records {
		var rec ResultRecord
		if json.Unmarshal(raw, &rec) == nil && rec.Index != nil {
			j.durable[*rec.Index] = true
		}
	}
	return j
}

// touch records a sign of life for the stall watchdog.
func (j *job) touch() { j.progress.Store(time.Now().UnixNano()) }

// wake closes and replaces the broadcast channel. Callers hold j.mu.
func (j *job) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// append adds one marshalled record to the result log (and the journal, when
// on) and wakes streamers. A record that arrives once the job is terminal —
// from a sweep still draining after a stall verdict or a cancel — is
// dropped, so the log ends with its terminal record, as the journal (closed
// by finish) does. A record whose sweep index is already durable —
// re-generated by a resumed sweep — is skipped too; append reports whether
// the record actually landed.
func (j *job) append(rec ResultRecord) bool {
	j.touch()
	raw, err := json.Marshal(rec)
	if err != nil {
		// Records are built from plain structs; marshalling cannot fail.
		// Guard anyway so a future field never wedges a stream silently.
		raw, _ = json.Marshal(ResultRecord{Type: "error", Error: "marshal: " + err.Error()})
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if Terminal(j.state) || rec.Index != nil && j.durable[*rec.Index] {
		return false
	}
	j.land(raw)
	return true
}

// land appends marshalled records to the result log and, in one write and
// one sync, to the journal, then wakes streamers. Callers hold j.mu.
func (j *job) land(raws ...json.RawMessage) {
	j.records = append(j.records, raws...)
	j.jf.Append(raws...)
	j.wake()
}

// copyLog lands src's records, all but its terminal summary, as j's own in
// one append, takes src's replay count, and returns the summary for finish
// to land as j's terminal record. src is a done job, so its log is final.
// A job that turned terminal meanwhile keeps its log as it is.
func (j *job) copyLog(src *job) json.RawMessage {
	src.mu.Lock()
	recs, total := src.records, src.totalRuns
	src.mu.Unlock()
	last := len(recs) - 1
	j.mu.Lock()
	defer j.mu.Unlock()
	if !Terminal(j.state) {
		j.totalRuns = total
		j.land(recs[:last]...)
	}
	return recs[last]
}

// start transitions queued → running. It returns false when the job was
// cancelled while queued.
func (j *job) start(cancel context.CancelFunc, totalRuns int, now time.Time) bool {
	j.touch()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.totalRuns = totalRuns
	j.started = now
	j.wake()
	return true
}

// setTotalRuns records the sweep's replay count once known.
func (j *job) setTotalRuns(n int) {
	j.mu.Lock()
	j.totalRuns = n
	j.wake()
	j.mu.Unlock()
}

// finish moves the job to a terminal state, appends the marshalled terminal
// record (if any), spools it and the terminal state line to the journal in
// one write, runs settle (if non-nil) and only then releases everything
// waiting on the job. settle runs under j.mu, so whatever it does happens
// before any reader can observe the terminal state or record. Last, once
// the lock is released, finish cancels
// the job's context if it has one, which stops a sweep still running
// whichever way the job ended: a stall verdict, or a cancel that found the
// job queued and lost the race to the executor's start. finish is
// idempotent: only the first call wins, so a cancel racing a natural
// completion cannot double-close done.
func (j *job) finish(state, errMsg string, term json.RawMessage, now time.Time, settle func()) bool {
	j.mu.Lock()
	if Terminal(j.state) {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = now
	if term != nil {
		j.records = append(j.records, term)
	}
	if j.jf != nil {
		st, _ := json.Marshal(journalState{Type: "state", State: state, Error: errMsg, FinishedMS: now.UnixMilli()})
		if term != nil {
			j.jf.Append(term, st)
		} else {
			j.jf.Append(st)
		}
		j.jf.Close()
	}
	if settle != nil {
		settle()
	}
	cancel := j.cancel
	j.cancel = nil
	j.wake()
	close(j.done)
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// requestCancel asks the job to stop. A running job gets its context
// cancelled and finishes when its executor observes the cancellation. It
// reports whether the job is still queued, in which case the caller
// finishes it; an executor never starts a terminal job.
func (j *job) requestCancel() (queued bool) {
	j.mu.Lock()
	state, cancel := j.state, j.cancel
	j.mu.Unlock()
	if state == StateQueued {
		return true
	}
	if cancel != nil {
		cancel()
	}
	return false
}

// status snapshots the job's wire status.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Spec:      j.spec,
		Error:     j.errMsg,
		Runs:      len(j.records),
		TotalRuns: j.totalRuns,
		CreatedMS: j.created.UnixMilli(),
	}
	if !j.started.IsZero() {
		st.StartedMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		st.FinishedMS = j.finished.UnixMilli()
	}
	return st
}

// follow returns the records from index from onward, the current terminal
// flag, and the channel that will be closed on the next append or state
// change. The returned slice aliases the append-only log and must not be
// mutated.
func (j *job) follow(from int) (recs []json.RawMessage, terminal bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.records) {
		recs = j.records[from:]
	}
	return recs, Terminal(j.state), j.notify
}
