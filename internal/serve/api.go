// Package serve turns the characterisation sweeps into a long-running
// service: qoed owns warmed replay sessions behind bounded worker pools,
// accepts sweep jobs over HTTP/JSON, streams per-run results as NDJSON while
// they complete, and applies backpressure by refusing submissions once its
// job queue is full. The package also ships the matching client and a
// ReqBench-style load harness, so the whole serve path is testable
// in-process.
//
// Job lifecycle: a job is submitted (POST /jobs, state "queued"), picked up
// by an executor ("running"), and ends "done", "failed" or "cancelled".
// Results stream on GET /jobs/{id}/results as NDJSON: one "run" record per
// completed replay as it completes (completion order; sort by (config, rep)
// for the deterministic sweep order), then one terminal "summary" record —
// or an "error" record if the sweep failed or was cancelled. DELETE
// /jobs/{id} cancels: a queued job never starts, a running one stops
// claiming new replays and keeps its warmed sessions for the next job. A
// job whose normalised spec matches a done job this process finished and
// still retains sweeps nothing: its log is a copy of that job's (see
// docs/serving.md, "Reuse of finished results").
//
// The result log is append-only and replayable: GET /jobs/{id}/results?from=N
// skips the first N records, so a client that lost its stream resumes where
// it left off instead of re-reading (Client.RunJob does this automatically).
// GET /jobs lists the registry, newest first, with ?state= and ?limit=
// filters. Terminal jobs are retained up to Options.RetainJobs and then
// evicted oldest-finished-first, which keeps the registry bounded under
// sustained load; an evicted job's id answers 404 everywhere.
//
// The server is crash-safe and self-healing. Replay panics are contained per
// run: the job fails with partial results and a "fault" record carrying the
// stack, the possibly-poisoned warm session is quarantined (cold reboot on
// next use), and the process carries on. With Options.Journal set, every
// job's spec, result records and terminal state spool to per-job CRC-framed
// append-only files; a restarted server recovers finished jobs and re-queues
// interrupted ones, resuming their logs at the last durable record. With
// Options.StallTimeout set, a watchdog fails runs that stop making progress,
// and when every executor is wedged the server degrades gracefully: /healthz
// answers 503 and submissions shed with 429. See docs/serving.md,
// "Reliability".
package serve

import (
	"repro/internal/population"
	"repro/internal/report"
)

// JobSpec is the wire form of one sweep job: which workload on which SoC,
// which slice of the config matrix, how many repetitions, under which master
// seed. The zero values mean: full matrix, server-default reps (1), seed 1.
// Setting Units > 0 turns the job into a population sweep (see the
// population fields below).
type JobSpec struct {
	// Workload is a workload name known to workload.ByName (e.g.
	// "quickstart", "dataset01").
	Workload string `json:"workload"`
	// SoC is "dragonboard" (default) or "biglittle".
	SoC string `json:"soc,omitempty"`
	// Idle installs the default C-state ladder on every cluster.
	Idle bool `json:"idle,omitempty"`
	// Configs restricts the sweep to the named subset of the config
	// matrix (empty = full matrix). On single-cluster SoCs the subset
	// must keep at least one fixed frequency.
	Configs []string `json:"configs,omitempty"`
	// Reps is the repetition count per configuration (0 → 1).
	Reps int `json:"reps,omitempty"`
	// Seed is the sweep's master seed (0 → 1).
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMS bounds the job's execution wall time in milliseconds
	// (0 = no deadline). A job still sweeping when the deadline fires
	// stops claiming new replays and finishes "failed" with a
	// deadline-exceeded error; the executor and its warm sessions stay
	// reusable.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Units, when > 0, makes this a Monte Carlo population job: Units
	// simulated devices, each a seeded perturbation of the SoC, each swept
	// through the config matrix. The stream then carries one "pop" record
	// per run (instead of "run"/"candidate" records) and a terminal
	// "summary" record with percentile tables. Bounded to 100000 per job.
	Units int `json:"units,omitempty"`
	// Population is the perturbation model for population jobs (nil → the
	// zero model: every unit is the base device).
	Population *population.Model `json:"population,omitempty"`
	// ThermalTripC selects the population job's thermal environment:
	// 0 = thermal off, < 0 = record-only zones (temperatures recorded, no
	// throttling), 40..150 = throttling trips at that °C. Ignored on
	// non-population jobs.
	ThermalTripC float64 `json:"thermal_trip_c,omitempty"`
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobStatus is the wire form of a job's lifecycle state (GET /jobs/{id} and
// the POST /jobs response).
type JobStatus struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	Spec  JobSpec `json:"spec"`
	// Error carries the failure reason for state "failed" (and
	// "cancelled", where it is "job cancelled").
	Error string `json:"error,omitempty"`
	// Runs counts result records streamed so far; TotalRuns the sweep's
	// total replay count (configs × reps + oracle candidates), known once
	// the job starts.
	Runs      int `json:"runs"`
	TotalRuns int `json:"total_runs,omitempty"`
	// CreatedMS/StartedMS/FinishedMS are wall-clock unix milliseconds.
	CreatedMS  int64 `json:"created_ms"`
	StartedMS  int64 `json:"started_ms,omitempty"`
	FinishedMS int64 `json:"finished_ms,omitempty"`
}

// Terminal reports whether the state is final.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// ValidState reports whether state is one of the five job states (the
// listing endpoint rejects unknown state filters with 400).
func ValidState(state string) bool {
	switch state {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// JobList is the GET /jobs document: job statuses newest-first, after the
// state filter and the limit. Total counts the jobs that matched the filter
// before the limit was applied, so a truncated listing is detectable.
type JobList struct {
	Jobs  []JobStatus `json:"jobs"`
	Total int         `json:"total"`
}

// ResultRecord is one NDJSON line of a job's result stream.
type ResultRecord struct {
	// Type is "run" (one config replay completed), "candidate" (one
	// oracle placement-pinned replay completed; progress only, no
	// payload), "pop" (population jobs: one scalar record per
	// unit × config × rep run, replacing "run"/"candidate" records),
	// "fault" (one replay failed: it returned an error, or it panicked and
	// the panic was contained and the session quarantined; the job will
	// finish "failed" with whatever completed), "summary" (terminal, sweep
	// aggregates) or "error" (terminal, sweep failed or cancelled).
	Type string `json:"type"`
	// Index is the replay's position in the sweep's deterministic job
	// order, set on "run", "candidate", "pop" and "fault" records (on
	// population jobs the order is global: unit-major, then the unit's
	// matrix job order). It is the resume key of the durable journal: a
	// re-executed job skips appending records whose index already survived
	// on disk. A pointer because index 0 is a real position.
	Index *int `json:"index,omitempty"`
	// Run is set for "run" records.
	Run *report.RunRecord `json:"run,omitempty"`
	// Pop is set for "pop" records: the scalar outcomes of one population
	// run, shard-file compatible with report.ShardWriter lines.
	Pop *report.PopRunRecord `json:"pop,omitempty"`
	// Candidate labels a completed candidate replay ("<cluster>@<OPP>")
	// with its repetition in Rep.
	Candidate string `json:"candidate,omitempty"`
	Rep       int    `json:"rep,omitempty"`
	// Summary is set for the terminal "summary" record of matrix jobs;
	// Population for the terminal "summary" record of population jobs
	// (percentile tables from the merged digests).
	Summary    *report.MatrixSummary     `json:"summary,omitempty"`
	Population *report.PopulationSummary `json:"population,omitempty"`
	// Error is set for "error" and "fault" records; Stack carries a
	// contained panic's worker stack on "fault" records.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
}

// Stats is the /statsz document: queue and pool gauges plus job counters.
type Stats struct {
	// QueueDepth is the number of jobs waiting for an executor;
	// QueueCapacity the backpressure limit (submissions beyond it get
	// 429). RunningJobs counts jobs currently executing, InFlightRuns
	// individual replays executing across all pools.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	RunningJobs   int `json:"running_jobs"`
	InFlightRuns  int `json:"in_flight_runs"`
	// Executors is the number of job executors, Workers the replay pool
	// width of each. HealthyExecutors counts executors not currently
	// wedged on a stalled run; when it hits zero /healthz turns 503 and
	// submissions are shed with 429.
	Executors        int `json:"executors"`
	Workers          int `json:"workers"`
	HealthyExecutors int `json:"healthy_executors"`
	// WarmSessions counts warmed replay sessions across all pools; Forks
	// the replays served per session key ("workload|spec[+idle]").
	WarmSessions int            `json:"warm_sessions"`
	Forks        map[string]int `json:"forks,omitempty"`
	// JobsTracked is the number of jobs currently in the registry
	// (non-terminal jobs plus retained terminal ones); RetainJobs the
	// retention cap on terminal jobs, beyond which the oldest-finished
	// are evicted.
	JobsTracked int `json:"jobs_tracked"`
	RetainJobs  int `json:"retain_jobs"`
	// Job counters over the server's lifetime.
	JobsSubmitted int `json:"jobs_submitted"`
	JobsRejected  int `json:"jobs_rejected"`
	JobsDone      int `json:"jobs_done"`
	JobsFailed    int `json:"jobs_failed"`
	JobsCancelled int `json:"jobs_cancelled"`
	JobsEvicted   int `json:"jobs_evicted"`
	// JobsReused counts jobs answered by copying the log of a retained job
	// this process finished done under the same normalised spec, with no
	// record, annotation or replay run.
	JobsReused int `json:"jobs_reused"`
	// Reliability counters: replay panics contained by the pools, warm
	// sessions quarantined after them, jobs failed by the stall watchdog,
	// submissions shed while no executor was healthy, and journal
	// recovery's terminal-jobs-restored / interrupted-jobs-requeued split.
	RunPanics          int `json:"run_panics"`
	SessionQuarantines int `json:"session_quarantines"`
	JobsStalled        int `json:"jobs_stalled"`
	JobsShed           int `json:"jobs_shed"`
	JobsRecovered      int `json:"jobs_recovered"`
	JobsRequeued       int `json:"jobs_requeued"`
}
