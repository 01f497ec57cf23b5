package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/population"
	"repro/internal/report"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Options configures a characterisation server.
type Options struct {
	// Executors is the number of jobs executing concurrently, each on its
	// own warm replay pool (0 → 2).
	Executors int
	// Workers is each executor pool's replay width (0 → GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting for an executor;
	// submissions beyond it are refused with 429 (0 → 8).
	QueueDepth int
	// RetainJobs bounds the terminal jobs kept in the registry for
	// status lookups, listings and result-log replay. Beyond it the
	// oldest-finished job is evicted — its id then answers 404 (and its
	// journal file, if any, is deleted) — which is what keeps server
	// memory and the journal directory flat under sustained load (0 → 256).
	RetainJobs int
	// Journal, when non-empty, is a directory the server spools every
	// job's spec, result records and terminal state into (one CRC-framed,
	// synced, append-only file per job). On startup the directory is
	// replayed: finished jobs come back listable and streamable,
	// interrupted jobs are re-queued and resume appending at their last
	// durable record. Empty disables journaling entirely.
	Journal string
	// StallTimeout, when > 0, arms the stuck-run watchdog: a running job
	// whose workers report no progress (replay started, ended or faulted,
	// record appended) for this long is cancelled and failed like a
	// deadline, and its executor is counted unhealthy until the wedged
	// replay actually returns. While no executor is healthy, /healthz
	// answers 503 and submissions are shed with 429. 0 disables the
	// watchdog.
	StallTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Executors <= 0 {
		o.Executors = 2
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 256
	}
	return o
}

// executor is one job-execution lane: a long-lived replay pool plus the
// health bookkeeping the watchdog and /healthz read. current is the job the
// lane is executing right now (nil between jobs); healthy drops to false
// when the watchdog fails the lane's job for stalling and recovers once the
// wedged sweep actually returns control.
type executor struct {
	pool    *experiment.Pool
	current atomic.Pointer[job]
	healthy atomic.Bool
}

// Server is the qoed characterisation service: a bounded job queue in front
// of Executors job executors, each owning a long-lived experiment.Pool whose
// warmed replay sessions persist across jobs. Create with New, mount
// Handler() on an http.Server, and Close when done.
type Server struct {
	opts Options
	mux  *http.ServeMux

	queue chan *job

	mu      sync.Mutex
	jobs    map[string]*job
	retired []*job // terminal jobs in finish order; evicted from the front
	nextID  int
	// sources maps a normalised spec (reuseKey) to the latest retained job
	// this process finished done under it; a later job with that spec
	// copies its log instead of sweeping. Eviction clears the entry, so
	// RetainJobs bounds the map.
	sources map[string]*job

	execs   []*executor
	journal *Journal

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once

	// testHook, when set (tests only), runs with kind "start" on the
	// worker about to run each of a job's replays, and with a record's
	// type right after that record lands in the job's log, on the
	// goroutine that delivered it. It is the deterministic way to hold a
	// job running or mid-sweep, to crash the server at an exact record
	// count, to panic inside a replay or to wedge one under the watchdog.
	testHook func(j *job, kind string)

	running       atomic.Int64
	jobsSubmitted atomic.Int64
	jobsRejected  atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64
	jobsEvicted   atomic.Int64
	jobsStalled   atomic.Int64
	jobsShed      atomic.Int64
	jobsRecovered atomic.Int64
	jobsRequeued  atomic.Int64
	jobsReused    atomic.Int64
}

// New builds a server, replays its journal (when configured) and starts its
// executors. Interrupted jobs found in the journal are re-queued ahead of
// new submissions; if they outnumber QueueDepth the queue is sized up so
// recovery never deadlocks startup.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		jobs:    make(map[string]*job),
		sources: make(map[string]*job),
	}
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())

	var requeue []*job
	if opts.Journal != "" {
		jn, err := OpenJournal(opts.Journal)
		if err != nil {
			return nil, err
		}
		s.journal = jn
		recovered, err := jn.Recover()
		if err != nil {
			return nil, err
		}
		for _, rj := range recovered {
			j := jobFromRecovered(rj)
			if j.seq > s.nextID {
				s.nextID = j.seq
			}
			s.jobs[j.id] = j
			if Terminal(j.state) {
				s.jobsRecovered.Add(1)
				s.retire(j, false)
				continue
			}
			jf, err := jn.Reopen(j.id)
			if err != nil {
				return nil, err
			}
			j.jf = jf
			requeue = append(requeue, j)
		}
	}
	qcap := opts.QueueDepth
	if len(requeue) > qcap {
		qcap = len(requeue)
	}
	s.queue = make(chan *job, qcap)
	for _, j := range requeue {
		s.queue <- j
		s.jobsRequeued.Add(1)
	}

	for i := 0; i < opts.Executors; i++ {
		e := &executor{pool: experiment.NewPool(opts.Workers)}
		e.healthy.Store(true)
		s.execs = append(s.execs, e)
		s.wg.Add(1)
		go s.executorLoop(e)
	}
	if opts.StallTimeout > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/results", s.handleResults)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every running job, stops the executors and waits for them to
// drain. Jobs still queued are marked cancelled. Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.cancelAll()
		s.wg.Wait()
		// Executors are gone; whatever is left in the queue never ran.
		for {
			select {
			case j := <-s.queue:
				s.finish(j, StateCancelled, "server shutting down", nil, time.Now())
			default:
				return
			}
		}
	})
}

// crash freezes the journal and cancels everything — the in-process stand-in
// for the process dying mid-sweep. Whatever the journal holds at this
// instant is exactly what a restarted server will recover; the dying
// server's in-memory state transitions write nothing. Tests only: the server
// is unusable afterwards except for Close.
func (s *Server) crash() {
	if s.journal != nil {
		s.journal.frozen.Store(true)
	}
	s.cancelAll()
}

// SpecByName resolves a wire SoC name ("" or "dragonboard", "biglittle") to
// its spec, optionally with the default C-state ladder installed.
func SpecByName(name string, idle bool) (soc.Spec, error) {
	var spec soc.Spec
	switch name {
	case "", "dragonboard":
		spec = soc.Dragonboard()
	case "biglittle":
		spec = soc.BigLittle44()
	default:
		return soc.Spec{}, fmt.Errorf("unknown soc %q (use dragonboard or biglittle)", name)
	}
	if idle {
		spec = soc.WithDefaultIdle(spec)
	}
	return spec, nil
}

// validateSpec rejects jobs that could never run before they occupy a queue
// slot. Config and governor names resolve here, so a typo — including an
// unknown governor inside a "<little>/<big>" mixed arm — is a 400 at
// submission, never a failure inside a replay worker.
func validateSpec(spec JobSpec) error {
	if workload.ByName(spec.Workload) == nil {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	socSpec, err := SpecByName(spec.SoC, spec.Idle)
	if err != nil {
		return err
	}
	if err := experiment.ValidateSelection(socSpec, spec.Configs); err != nil {
		return err
	}
	if spec.Reps < 0 || spec.Reps > 50 {
		return fmt.Errorf("reps %d out of range [0, 50]", spec.Reps)
	}
	if spec.TimeoutMS < 0 || spec.TimeoutMS > 10*60*1000 {
		return fmt.Errorf("timeout_ms %d out of range [0, 600000]", spec.TimeoutMS)
	}
	if spec.Units < 0 || spec.Units > 100000 {
		return fmt.Errorf("units %d out of range [0, 100000]", spec.Units)
	}
	if spec.Units == 0 {
		if spec.Population != nil {
			return fmt.Errorf("population model requires units > 0")
		}
		return nil
	}
	if spec.Population != nil {
		if err := spec.Population.Validate(); err != nil {
			return err
		}
	}
	if t := spec.ThermalTripC; t > 0 && (t < 40 || t > 150) {
		return fmt.Errorf("thermal_trip_c %g out of range (0 off, < 0 record-only, 40..150 trip)", t)
	}
	return nil
}

// reuseKey is a spec's normalised form: two jobs with the same key sweep
// the same inputs to the same results. It fills in the defaults runJob and
// the sweeps apply (seed 1, one rep, Dragonboard, the zero population
// model) and drops what cannot change a result: the deadline, and the
// thermal trip of a matrix job.
func reuseKey(spec JobSpec) string {
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Reps <= 0 {
		spec.Reps = 1
	}
	if spec.SoC == "" {
		spec.SoC = "dragonboard"
	}
	if spec.Units == 0 {
		spec.ThermalTripC = 0
	} else if spec.Population == nil {
		spec.Population = &population.Model{}
	}
	spec.TimeoutMS = 0
	raw, _ := json.Marshal(spec)
	return string(raw)
}

// executorLoop consumes jobs off the queue until the server closes.
func (s *Server) executorLoop(e *executor) {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.execute(j, e)
		}
	}
}

// execute runs one job on the executor's pool and finishes it.
func (s *Server) execute(j *job, e *executor) {
	// A job deadline bounds execution wall time only: queue wait does not
	// count against it, so a slow day at the queue cannot expire a job
	// before it gets an executor.
	var ctx context.Context
	var cancel context.CancelFunc
	if j.spec.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(j.spec.TimeoutMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	if !j.start(cancel, 0, time.Now()) {
		return // cancelled while queued
	}
	s.running.Add(1)
	e.current.Store(j)
	defer func() {
		// Whatever happened — including a stall verdict delivered while the
		// sweep was wedged — control is back, so the lane is healthy again.
		e.current.Store(nil)
		e.healthy.Store(true)
		s.running.Add(-1)
	}()
	term, err := s.runJob(ctx, j, e.pool)
	switch {
	case err == nil:
		s.finish(j, StateDone, "", term, time.Now())
	case errors.Is(err, context.DeadlineExceeded):
		msg := fmt.Sprintf("deadline exceeded (timeout_ms=%d)", j.spec.TimeoutMS)
		s.finish(j, StateFailed, msg, nil, time.Now())
	case errors.Is(err, context.Canceled):
		s.finish(j, StateCancelled, "job cancelled", nil, time.Now())
	default:
		// Ordinary failures and contained panics land here alike: the
		// sweep's error unwraps to *experiment.PanicError for the latter,
		// and the per-run "fault" record with the stack is already in the
		// log. The job fails with whatever partial results streamed; the
		// executor, its pool and the process carry on.
		s.finish(j, StateFailed, err.Error(), nil, time.Now())
	}
}

// finish is the one way a server job becomes terminal. The terminal record
// is the marshalled term, or an error record carrying msg when term is nil.
// Inside job.finish, before the terminal state, record or done channel can
// be observed and before the job's sweep is cancelled, it counts the job
// under its final state, runs each of also and retires it, so a client that
// has read the terminal record never sees stale /statsz counters or a
// registry above RetainJobs. It reports whether this call made the
// transition. A job finished done becomes its spec's reuse source, unless
// it resumed a journal's log, which may hold records of another binary.
//
// Lock order: j.mu, then s.mu (taken by retire). No path takes j.mu while
// holding s.mu; handleList snapshots statuses after releasing it.
func (s *Server) finish(j *job, state, msg string, term json.RawMessage, now time.Time, also ...func()) bool {
	if term == nil {
		term, _ = json.Marshal(ResultRecord{Type: "error", Error: msg})
	}
	return j.finish(state, msg, term, now, func() {
		switch state {
		case StateDone:
			s.jobsDone.Add(1)
		case StateFailed:
			s.jobsFailed.Add(1)
		case StateCancelled:
			s.jobsCancelled.Add(1)
		}
		for _, fn := range also {
			fn()
		}
		s.retire(j, state == StateDone && j.durable == nil)
	})
}

// runJob executes the job's sweep on the given pool and returns its
// marshalled terminal summary record: matrix aggregates, or population
// percentiles for a job with Units. A job that has a source copies that
// job's log instead and sweeps nothing. Every update of the sweep's stream
// is a sign of life for the stall watchdog. A matrix job streams a "run" or
// "candidate" record per replay as workers complete them. A population job
// streams no per-replay records, which at population volumes would swamp
// the log: every config run lands as one scalar "pop" record instead, in
// deterministic global order. Both stream "fault" records, so failed
// replays and contained panics stay diagnosable, and every record carries
// its sweep index, the journal's resume key.
func (s *Server) runJob(ctx context.Context, j *job, pool *experiment.Pool) (json.RawMessage, error) {
	if src := s.source(j); src != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.jobsReused.Add(1)
		return j.copyLog(src), nil
	}
	w := workload.ByName(j.spec.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", j.spec.Workload)
	}
	spec, err := SpecByName(j.spec.SoC, j.spec.Idle)
	if err != nil {
		return nil, err
	}
	reps := j.spec.Reps
	if reps <= 0 {
		reps = 1
	}
	pop := j.spec.Units > 0
	hook := func(kind string) {
		if s.testHook != nil {
			s.testHook(j, kind)
		}
	}
	land := func(rec ResultRecord) {
		if j.append(rec) {
			hook(rec.Type)
		}
	}
	var totalOnce sync.Once
	opts := experiment.Options{
		Reps:    reps,
		Seed:    j.spec.Seed,
		Pool:    pool,
		Context: ctx,
		Configs: j.spec.Configs,
		OnRun: func(u experiment.RunUpdate) {
			j.touch()
			totalOnce.Do(func() { j.setTotalRuns(u.Total) })
			idx := u.Index
			switch {
			case u.Kind == "start":
				hook(u.Kind)
			case u.Kind == "fault":
				land(ResultRecord{Type: "fault", Error: u.Err, Stack: u.Stack, Index: &idx})
			case pop: // population runs land through OnPop
			case u.Kind == "config":
				rec := report.NewRunRecord(j.spec.Workload, u.Run)
				land(ResultRecord{Type: "run", Run: &rec, Index: &idx})
			case u.Kind == "candidate":
				land(ResultRecord{Type: "candidate", Candidate: u.Config, Rep: u.Rep, Index: &idx})
			}
		},
	}
	if !pop {
		res, err := experiment.RunMatrix(w, spec, opts)
		if err != nil {
			return nil, err
		}
		sum := report.NewMatrixSummary(res)
		return json.Marshal(ResultRecord{Type: "summary", Summary: &sum})
	}

	var model population.Model
	if j.spec.Population != nil {
		model = *j.spec.Population
	}
	// ThermalTripC: 0 = thermal off; < 0 = record-only zones (PhoneConfig
	// treats a non-positive trip as record-only); > 0 = throttle trip.
	var bt thermal.Config
	if j.spec.ThermalTripC != 0 {
		bt = thermal.PhoneConfig(len(spec.Clusters), j.spec.ThermalTripC, 0)
	}
	res, err := experiment.RunPopulation(w, spec, experiment.PopulationOptions{
		Options:     opts,
		Units:       j.spec.Units,
		Model:       model,
		BaseThermal: bt,
		OnPop: func(pr experiment.PopRun) {
			rec := report.NewPopRunRecord(pr)
			idx := pr.Index
			land(ResultRecord{Type: "pop", Pop: &rec, Index: &idx})
		},
	})
	if err != nil {
		return nil, err
	}
	sum := report.NewPopulationSummary(res)
	return json.Marshal(ResultRecord{Type: "summary", Population: &sum})
}

// source returns the job whose log answers j: the latest retained job this
// process finished done under j's normalised spec, or nil. A duplicate of a
// job still running has none yet, and a resumed job never uses one: it
// sweeps to complete the log it already holds.
func (s *Server) source(j *job) *job {
	if j.durable != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sources[j.key]
}

// watchdog periodically checks every executing job for liveness and fails
// the ones that stalled: finish failed, which cancels the sweep so it stops
// claiming replays, and mark the lane unhealthy until the wedged replay
// returns.
func (s *Server) watchdog() {
	defer s.wg.Done()
	period := s.opts.StallTimeout / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-t.C:
			s.sweepStalled(now)
		}
	}
}

// sweepStalled delivers the stall verdict to every wedged job. It runs
// lock-free over the executor lanes; finish takes its own locks and cancels
// the sweep. The lane turns unhealthy inside that terminal transition,
// before the cancel: a sweep that returns at once then heals the lane after
// the verdict, never before it.
func (s *Server) sweepStalled(now time.Time) {
	for _, e := range s.execs {
		j := e.current.Load()
		if j == nil {
			continue
		}
		last := time.Unix(0, j.progress.Load())
		if now.Sub(last) < s.opts.StallTimeout {
			continue
		}
		msg := fmt.Sprintf("run stalled: no worker progress for %s (stall timeout %s)",
			now.Sub(last).Round(time.Millisecond), s.opts.StallTimeout)
		s.finish(j, StateFailed, msg, nil, now, func() {
			s.jobsStalled.Add(1)
			e.healthy.Store(false)
		})
	}
}

// healthyExecutors counts lanes not wedged on a stalled run.
func (s *Server) healthyExecutors() int {
	n := 0
	for _, e := range s.execs {
		if e.healthy.Load() {
			n++
		}
	}
	return n
}

// lookup returns a registered job by id.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// retire counts a freshly-terminal job into the retention ring, makes it
// its spec's reuse source when source is set, and evicts the
// oldest-finished jobs beyond the cap. It runs once per job: from inside
// the job's one winning terminal transition (finish), or from New for a job
// the journal recovered as terminal.
func (s *Server) retire(j *job, source bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retired = append(s.retired, j)
	if source {
		s.sources[j.key] = j
	}
	for len(s.retired) > s.opts.RetainJobs {
		old := s.retired[0]
		// Shift instead of re-slicing so evicted jobs do not pin the
		// array's dead prefix.
		copy(s.retired, s.retired[1:])
		s.retired = s.retired[:len(s.retired)-1]
		delete(s.jobs, old.id)
		if s.sources[old.key] == old {
			delete(s.sources, old.key)
		}
		if s.journal != nil {
			s.journal.Remove(old.id)
		}
		s.jobsEvicted.Add(1)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	if err := validateSpec(spec); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(s.execs) > 0 && s.healthyExecutors() == 0 {
		// Graceful degradation: every lane is wedged on a stalled run.
		// Accepting work it cannot start only deepens the hole — shed it.
		s.jobsShed.Add(1)
		writeError(w, http.StatusTooManyRequests, "no healthy executors (stalled runs); retry later")
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.nextID++
	j := newJob(fmt.Sprintf("job-%d", s.nextID), s.nextID, spec, now)
	s.jobs[j.id] = j
	s.mu.Unlock()

	if s.journal != nil {
		jf, err := s.journal.Create(journalMeta{ID: j.id, Seq: j.seq, Spec: spec, CreatedMS: now.UnixMilli()})
		if err != nil {
			s.mu.Lock()
			delete(s.jobs, j.id)
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, "journal: "+err.Error())
			return
		}
		j.jf = jf
	}

	select {
	case s.queue <- j:
		s.jobsSubmitted.Add(1)
		writeJSON(w, http.StatusAccepted, j.status())
	default:
		// Backpressure: the queue is full. Drop the registration (and the
		// journal file) so the refused job is invisible, and tell the
		// client to back off.
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		if s.journal != nil {
			j.jf.Close()
			s.journal.Remove(j.id)
		}
		s.jobsRejected.Add(1)
		writeError(w, http.StatusTooManyRequests, "job queue full")
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	// A queued job finishes right here; a running one finishes on its
	// executor.
	if j.requestCancel() {
		s.finish(j, StateCancelled, "job cancelled", nil, time.Now())
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleList returns the registry newest-first, optionally filtered by
// ?state= and truncated by ?limit= (default 100, 0 = unlimited).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := q.Get("state")
	if state != "" && !ValidState(state) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown state %q", state))
		return
	}
	limit := 100
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit "+raw)
			return
		}
		limit = n
	}

	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	// Snapshot statuses outside s.mu — status() takes each job's own lock.
	list := JobList{Jobs: []JobStatus{}}
	statuses := make([]JobStatus, 0, len(jobs))
	seqs := make([]int, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		if state != "" && st.State != state {
			continue
		}
		statuses = append(statuses, st)
		seqs = append(seqs, j.seq)
	}
	sort.Sort(&bySeqDesc{seqs: seqs, statuses: statuses})
	list.Total = len(statuses)
	if limit > 0 && len(statuses) > limit {
		statuses = statuses[:limit]
	}
	list.Jobs = statuses
	writeJSON(w, http.StatusOK, list)
}

// bySeqDesc sorts job statuses newest-first by submission sequence.
type bySeqDesc struct {
	seqs     []int
	statuses []JobStatus
}

func (b *bySeqDesc) Len() int           { return len(b.seqs) }
func (b *bySeqDesc) Less(i, k int) bool { return b.seqs[i] > b.seqs[k] }
func (b *bySeqDesc) Swap(i, k int) {
	b.seqs[i], b.seqs[k] = b.seqs[k], b.seqs[i]
	b.statuses[i], b.statuses[k] = b.statuses[k], b.statuses[i]
}

// handleResults streams a job's result log as NDJSON, following appends
// until the job is terminal and fully delivered, or until the client
// disconnects. Each line is one ResultRecord. ?from=N skips the first N
// records, so a client that lost its stream after N lines resumes exactly
// where it left off — the log is append-only, so the splice is seamless.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	from := 0
	if raw := r.URL.Query().Get("from"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from "+raw)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	sent := from
	for {
		recs, terminal, wait := j.follow(sent)
		for _, raw := range recs {
			// Two writes, never append(raw, '\n'): a record's bytes are
			// shared with every reader of its log and of the logs copied
			// from it.
			if _, err := w.Write(raw); err != nil {
				return // client went away
			}
			if _, err := w.Write(newline); err != nil {
				return
			}
			sent++
		}
		if len(recs) > 0 {
			rc.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

var newline = []byte{'\n'}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := s.healthyExecutors()
	doc := map[string]any{
		"status":            "ok",
		"healthy_executors": healthy,
		"executors":         len(s.execs),
	}
	if len(s.execs) > 0 && healthy == 0 {
		doc["status"] = "degraded"
		writeJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the server gauges and counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	tracked := len(s.jobs)
	s.mu.Unlock()
	st := Stats{
		QueueDepth:       len(s.queue),
		QueueCapacity:    s.opts.QueueDepth,
		RunningJobs:      int(s.running.Load()),
		Executors:        s.opts.Executors,
		Workers:          s.opts.Workers,
		HealthyExecutors: s.healthyExecutors(),
		Forks:            make(map[string]int),
		JobsTracked:      tracked,
		RetainJobs:       s.opts.RetainJobs,
		JobsSubmitted:    int(s.jobsSubmitted.Load()),
		JobsRejected:     int(s.jobsRejected.Load()),
		JobsDone:         int(s.jobsDone.Load()),
		JobsFailed:       int(s.jobsFailed.Load()),
		JobsCancelled:    int(s.jobsCancelled.Load()),
		JobsEvicted:      int(s.jobsEvicted.Load()),
		JobsStalled:      int(s.jobsStalled.Load()),
		JobsShed:         int(s.jobsShed.Load()),
		JobsRecovered:    int(s.jobsRecovered.Load()),
		JobsRequeued:     int(s.jobsRequeued.Load()),
		JobsReused:       int(s.jobsReused.Load()),
	}
	for _, e := range s.execs {
		st.InFlightRuns += e.pool.InFlightRuns()
		st.WarmSessions += e.pool.WarmSessions()
		st.RunPanics += e.pool.RecoveredPanics()
		st.SessionQuarantines += e.pool.Quarantines()
		for k, v := range e.pool.Forks() {
			st.Forks[k] += v
		}
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
