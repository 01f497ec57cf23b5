package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the traced run times. Each names the
// public function the benchmark calls, so the split needs no hook inside the
// program.
const (
	spanRequest     = "experiment.request"    // one benchmark request
	spanMatrix      = "experiment.matrix"     // one sweep (RunMatrix's body)
	spanJob         = "experiment.job"        // one pool job on a worker
	spanCalibrate   = "power.calibrate"       // soc.Spec.Calibrate
	spanEnergy      = "power.energy"          // SoCModel.Energy + IdleLeakEnergy
	spanRecord      = "workload.record"       // Workload.Record
	spanAnnotReplay = "workload.annot_replay" // workload.ReplayMulti (annotation capture)
	spanAnnotate    = "annotate.build"        // annotate.Build
	spanBoot        = "workload.boot"         // workload.NewReplaySession
	spanReplay      = "workload.replay"       // ReplaySession.ReplayRecording
	spanMatch       = "match.match"           // match.Match
	spanOracle      = "oracle.build"          // oracle.BuildCluster
	spanGenerate    = "population.generate"   // population.Generate
	spanDigest      = "stats.digest"          // stats.Digest folds of one unit
)

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// Parent is 0 for a request's root span. The count fields are set by the
// spans that carry them: SimS (simulated seconds replayed), Frames and
// Distinct (capture grid frames and distinct images), N (matched lags,
// oracle candidates or digest adds) and Failed.
type span struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent"`
	Req      int     `json:"req"`
	Name     string  `json:"name"`
	Start    int64   `json:"start_ns"`
	End      int64   `json:"end_ns"`
	SimS     float64 `json:"sim_s,omitempty"`
	Frames   int     `json:"frames,omitempty"`
	Distinct int     `json:"distinct,omitempty"`
	N        int     `json:"n,omitempty"`
	Failed   bool    `json:"failed,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps every closed span in memory; dump writes them out at exit.
// It is safe for concurrent use by the sweep's workers.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span under parent; the caller sets its counts and closes it.
func (t *tracer) open(req int, parent int64, name string) *span {
	return &span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: t.now()}
}

func (t *tracer) close(s *span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the served
// path's client calls and server timestamps).
func (t *tracer) add(s span) {
	s.ID = t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byRequest returns the closed spans grouped by request id.
func (t *tracer) byRequest() map[int][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int][]span)
	for _, s := range t.spans {
		out[s.Req] = append(out[s.Req], s)
	}
	return out
}

// dump writes the spans as NDJSON, ordered by start time.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// covered returns the length of the union of the intervals, each clipped to
// [lo, hi). Children of one span may overlap when they ran on different
// workers; the union counts shared time once.
func covered(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range clipped {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that the union of its children covers.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}
