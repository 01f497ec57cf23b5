package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/workload"
)

// Pool is a bounded replay worker pool whose per-worker scratch state —
// frame pools, trace recycling slots, and above all the warmed
// workload.ReplaySessions — persists across sweeps. A transient pool is
// created under the hood by every Run* entry point; a long-lived Pool passed
// in through Options.Pool is what turns the sweeps into a service: the first
// job on a pool pays device boot once per worker, every later job on any
// workload/spec combination forks off the warm devices.
//
// Concurrency: a Pool executes one sweep at a time (concurrent sweeps on the
// same pool serialise on an internal mutex — give independent job executors
// independent pools). The stats accessors are safe to call at any time,
// including while a sweep is executing.
//
// Fault containment: every job executes under a per-worker recover. A panic
// escaping a replay is converted into a *PanicError (value + captured
// stack), the warm session the run was using is quarantined — evicted from
// the worker's session registry, so the next run on that key boots cold
// instead of forking off possibly-poisoned state — and the worker moves on
// to the next job. The process never goes down for one bad run.
type Pool struct {
	workers   int
	batchMu   sync.Mutex // serialises sweeps; scratch state is per-worker
	scratches []*replayScratch
	inFlight  atomic.Int64 // runs currently executing across the pool
	panics    atomic.Int64 // panics recovered over the pool's lifetime
}

// PanicError is the structured failure of a replay that panicked: the
// recovered value and the worker goroutine's stack, captured at the recovery
// site inside the pool. It unwraps from the error a sweep returns, so
// callers can tell a contained panic from an ordinary replay error.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the worker stack at recovery, trimmed to the panic site.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("replay panicked: %v", e.Value)
}

// NewPool builds a pool of the given width (0 or negative → GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, scratches: make([]*replayScratch, workers)}
	for i := range p.scratches {
		p.scratches[i] = newReplayScratch()
	}
	return p
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// InFlightRuns returns the number of jobs executing right now: replays,
// plus a side job riding along a batch.
func (p *Pool) InFlightRuns() int { return int(p.inFlight.Load()) }

// RecoveredPanics returns the number of run panics the pool has contained
// over its lifetime.
func (p *Pool) RecoveredPanics() int { return int(p.panics.Load()) }

// WarmSessions returns the total number of warmed replay sessions across the
// pool's workers.
func (p *Pool) WarmSessions() int {
	n := 0
	for _, s := range p.scratches {
		n += s.sessions.Warm()
	}
	return n
}

// Forks returns the pool-wide fork counts per session key
// ("workload|spec[+idle]"), merged across workers.
func (p *Pool) Forks() map[string]int {
	out := make(map[string]int)
	for _, s := range p.scratches {
		for k, v := range s.sessions.Forks() {
			out[k] += v
		}
	}
	return out
}

// Quarantines returns the pool-wide count of warm sessions evicted after a
// contained panic.
func (p *Pool) Quarantines() int {
	n := 0
	for _, s := range p.scratches {
		n += s.sessions.Quarantines()
	}
	return n
}

// EachRegistry visits every worker's session registry. This is the
// inspection surface the chaos suites use to reach warm sessions (e.g. to
// corrupt one and then pin the quarantine recovery); it must only be called
// while no sweep is executing on the pool.
func (p *Pool) EachRegistry(fn func(r *workload.SessionRegistry)) {
	for _, s := range p.scratches {
		fn(s.sessions)
	}
}

// ReleaseSessions drops every warm session, across all workers, whose key
// matches — routine housekeeping (no quarantine is counted), used by
// population sweeps to retire a finished unit's sessions so pool memory
// stays flat no matter how many units stream through. Like EachRegistry it
// must only be called while no sweep is executing on the pool. Returns how
// many sessions were dropped.
func (p *Pool) ReleaseSessions(match func(key string) bool) int {
	n := 0
	for _, s := range p.scratches {
		n += s.sessions.Release(match)
	}
	return n
}

// run executes jobs [0, n) across the pool's workers, handing each worker
// its persistent scratch. Jobs are claimed off a shared atomic cursor, so
// assignment of job to worker varies run to run — fn must derive nothing
// from worker identity and write results only to its own index, which is
// what keeps sweep results deterministic regardless of interleaving.
//
// Each fn call runs under a per-worker recover: a panic is captured as a
// *PanicError, the session the job was replaying on is quarantined, and the
// panic is reported through onPanic — the worker then claims the next job.
//
// ctx cancellation is honoured between jobs: in-flight jobs run to
// completion (a replay is not interruptible mid-run), no further jobs are
// claimed, and run returns ctx.Err(). The pool stays fully reusable after a
// cancelled batch — warm sessions are untouched.
func (p *Pool) run(ctx context.Context, n int, fn func(ji int, scratch *replayScratch), onPanic func(ji int, pe *PanicError)) error {
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	workers := p.workers
	if workers > n {
		workers = n
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		scratch := p.scratches[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				ji := int(cursor.Add(1)) - 1
				if ji >= n {
					return
				}
				p.inFlight.Add(1)
				pe := p.protect(ji, scratch, fn)
				p.inFlight.Add(-1)
				if pe != nil {
					p.panics.Add(1)
					onPanic(ji, pe)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// protect runs one job under the worker's recover. On panic it captures the
// stack, quarantines the session the job was using (the device may hold
// half-mutated state that even Seal cannot be trusted to reset — the next
// run on that key must boot cold), and returns the structured failure.
func (p *Pool) protect(ji int, scratch *replayScratch, fn func(ji int, scratch *replayScratch)) (pe *PanicError) {
	scratch.activeKey = ""
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Value: r, Stack: debug.Stack()}
			scratch.quarantineActive()
		}
	}()
	fn(ji, scratch)
	return nil
}
