package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/workload"
)

// serve-mix: an open loop into an in-process qoed. The server runs one
// executor of `workers` replay workers with its journal on; a submitter
// connection posts each job at its due time and a follower connection
// streams the results of the jobs in submission order. One executor runs
// jobs first in, first out, so no job can finish before the follower
// reaches it, and the follower's receipt times are exact.

// serveEnv is one in-process server and its two client connections.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	dir    string
	submit *serve.Client
	follow *serve.Client
	bytes  *countingTransport
}

// countingTransport counts the response bytes the follower receives.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func startServe(workers int) (*serveEnv, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "journal-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Executors: 1, Workers: workers, Journal: dir, RetainJobs: 1 << 14})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serveEnv{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), dir: dir}
	go func() { e.served <- e.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	e.submit = &serve.Client{BaseURL: base, HTTPClient: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	e.bytes = &countingTransport{base: &http.Transport{MaxConnsPerHost: 1}}
	e.follow = &serve.Client{BaseURL: base, HTTPClient: &http.Client{Transport: e.bytes}}
	return e, nil
}

// close stops the listener and the server, waits for both, and removes the
// journal.
func (e *serveEnv) close() {
	e.hs.Close()
	<-e.served
	e.srv.Close()
	e.submit.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
	e.bytes.base.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// jobRun is one served job as the client saw it.
type jobRun struct {
	job       serveJob
	id        string
	due       time.Time
	submitAt  time.Time
	submitEnd time.Time
	received  time.Time // terminal record
	err       error
	refused   bool
	bytes     int64
	cands     int // candidate records
	runs      []indexed[report.RunRecord]
	pops      []indexed[report.PopRunRecord]
	matrix    *report.MatrixSummary
	pop       *report.PopulationSummary
}

type indexed[T any] struct {
	i   int
	rec T
}

// latency is the job's open-loop latency: from its due time, not from when
// it was sent, to its terminal record, so a stall anywhere ahead of it —
// in the generator, the queue or the stream of an earlier job — counts.
func (r *jobRun) latency() float64 { return r.received.Sub(r.due).Seconds() }

// records returns the records sorted by index.
func records[T any](xs []indexed[T]) []T {
	sort.Slice(xs, func(a, b int) bool { return xs[a].i < xs[b].i })
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = x.rec
	}
	return out
}

// digest folds the job's records sorted by index and its summary.
func (r *jobRun) digest() string {
	if r.pop != nil {
		return recordsDigest(records(r.pops), *r.pop)
	}
	if r.matrix != nil {
		return recordsDigest(records(r.runs), *r.matrix)
	}
	return "no summary"
}

// follow streams job r's results until its terminal record.
func (e *serveEnv) followJob(ctx context.Context, r *jobRun) {
	b0 := e.bytes.n.Load()
	err := e.follow.StreamResults(ctx, r.id, func(rec serve.ResultRecord) error {
		switch rec.Type {
		case "run":
			r.runs = append(r.runs, indexed[report.RunRecord]{*rec.Index, *rec.Run})
		case "candidate":
			r.cands++
		case "pop":
			r.pops = append(r.pops, indexed[report.PopRunRecord]{*rec.Index, *rec.Pop})
		case "summary":
			r.received = time.Now()
			r.matrix, r.pop = rec.Summary, rec.Population
		case "error", "fault":
			r.received = time.Now()
			r.err = fmt.Errorf("job %s: %s", r.id, rec.Error)
		}
		return nil
	})
	r.bytes = e.bytes.n.Load() - b0
	if err != nil && r.err == nil {
		r.err = err
	}
	if r.err == nil && r.received.IsZero() {
		r.err = fmt.Errorf("job %s: stream ended without a terminal record", r.id)
	}
}

// submitJob posts job r at its due time.
func (e *serveEnv) submitJob(ctx context.Context, r *jobRun) {
	time.Sleep(time.Until(r.due))
	r.submitAt = time.Now()
	spec := jobSpec(r.job.kind, r.job.slot)
	spec.TimeoutMS = jobTimeout.Milliseconds()
	st, err := e.submit.Submit(ctx, spec)
	r.submitEnd = time.Now()
	r.id, r.err, r.refused = st.ID, err, serve.IsQueueFull(err)
}

// jobTimeout is every served job's deadline; a job past it fails.
const jobTimeout = 60 * time.Second

// Serve-mix times the reference task refBracket times just before and just
// after its window, and inside the window in idle moments: after a job's
// terminal record, when the next job is due no sooner than refRoom and the
// previous timing began at least refSpacing ago. One FIFO executor has then
// finished every job submitted so far, so the timing shares the machine with
// no job.
const (
	refBracket = 5
	refRoom    = 200 * time.Millisecond
	refSpacing = time.Second
)

// drive runs the open loop: the submitter posts each job at start + due on
// its own goroutine, the follower streams them in order on this one. After
// each job but the last, the follower calls idle (when not nil) with the next
// job's due time.
func (e *serveEnv) drive(ctx context.Context, jobs []serveJob, start time.Time, idle func(next time.Time)) []*jobRun {
	runs := make([]*jobRun, len(jobs))
	for i, j := range jobs {
		runs[i] = &jobRun{job: j, due: start.Add(j.due)}
	}
	submitted := make(chan *jobRun, len(jobs)) // one send per job
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(submitted)
		for _, r := range runs {
			e.submitJob(ctx, r)
			submitted <- r
		}
	}()
	next := 0
	for r := range submitted {
		next++
		if r.err == nil {
			e.followJob(ctx, r)
		}
		if idle != nil && next < len(runs) {
			idle(runs[next].due)
		}
	}
	wg.Wait()
	return runs
}

// simS is the simulated seconds the job covered, from what it streamed: a
// matrix job's run and candidate records, a population job's summary.
func (r *jobRun) simS() float64 {
	w := workload.ByName(jobSpec(r.job.kind, r.job.slot).Workload)
	if r.pop != nil {
		return populationSimS(w, fleetSpec(), r.pop.Units, r.pop.Reps, r.pop.Runs)
	}
	return sweepSimS(&workload.Recording{Workload: w.Name, Duration: w.Duration}, 1+len(r.runs)+r.cands)
}

// runServe measures serve-mix: set-up (server start and one warm-up job of
// each kind) several times, then the open-loop window. Traced, it also
// records the client calls and server timestamps of every job, then
// re-drives the same jobs through the traced layers on long-lived lanes.
func runServe(seed uint64, rate float64, window time.Duration, workers int, g *goldenTable, traced bool) (*outcome, error) {
	o := &outcome{}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var e *serveEnv
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if e, err = startServe(workers); err != nil {
			return nil, err
		}
		for _, r := range e.drive(ctx, serveWarmups(seed), time.Now(), nil) {
			if err := checkJob(r, g); err != nil {
				o.fail(fmt.Sprintf("warm-up %s slot %d: %v", kindNames[r.job.kind], r.job.slot, err))
			}
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		if i < setups-1 {
			e.close()
		}
	}
	defer e.close()

	jobs := serveSchedule(seed, rate, window)
	if len(jobs) > maxServeJobs {
		return nil, fmt.Errorf("serve-mix: %d jobs exceed the %d the slot pools hold", len(jobs), maxServeJobs)
	}
	ref, err := startReference(workers)
	if err != nil {
		return nil, err
	}
	if err := ref.sample(refBracket); err != nil {
		ref.stop()
		return nil, err
	}
	var refErr error
	var lastRef time.Time
	idle := func(next time.Time) {
		if refErr != nil || time.Until(next) < refRoom || time.Since(lastRef) < refSpacing {
			return
		}
		lastRef = time.Now()
		refErr = ref.sample(1)
	}
	rt0 := readRuntime()
	hs := startHeapSampler()
	start := time.Now()
	runs := e.drive(ctx, jobs, start, idle)
	inWindow := len(ref.samples) - refBracket
	var last time.Time
	for _, r := range runs {
		if r.received.After(last) {
			last = r.received
		}
	}
	o.window = last.Sub(start).Seconds()
	o.offered = true
	o.heap, o.heapTop = hs.close()
	rt1 := readRuntime()
	err = refErr
	if err == nil {
		err = ref.sample(refBracket)
	}
	if serr := ref.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	o.ref = ref.samples
	o.notes = append(o.notes, fmt.Sprintf("reference task: %d timings in the window's idle moments, %d at each end", inWindow, refBracket))

	var late []float64
	kinds := [numKinds]int{}
	for _, r := range runs {
		o.attempted++
		late = append(late, r.submitAt.Sub(r.due).Seconds())
		if err := checkJob(r, g); err != nil {
			o.failed++
			o.fail(fmt.Sprintf("job %d (%s slot %d): %v", o.attempted-1, kindNames[r.job.kind], r.job.slot, err))
			o.latency = append(o.latency, math.Inf(1))
			continue
		}
		kinds[r.job.kind]++
		o.latency = append(o.latency, r.latency())
		o.simS += r.simS()
	}
	lateP90, beyond, _ := tail(late, 0.9)
	st, err := e.submit.Statsz(ctx)
	if err != nil {
		return nil, err
	}
	list, err := e.submit.List(ctx, "", 1<<20) // every job, not the default page
	if err != nil {
		return nil, err
	}
	status := make(map[string]serve.JobStatus, len(list.Jobs))
	for _, s := range list.Jobs {
		status[s.ID] = s
	}
	var busyMS int64
	var execByKind [numKinds][]float64
	for _, r := range runs {
		if s, ok := status[r.id]; ok && r.err == nil {
			busyMS += s.FinishedMS - s.StartedMS
			execByKind[r.job.kind] = append(execByKind[r.job.kind], float64(s.FinishedMS-s.StartedMS)/1e3)
		}
	}
	for c := range execByKind {
		o.notes = append(o.notes, fmt.Sprintf("serve-mix %s jobs: median execution %.4f s over %d jobs", kindNames[c], median(execByKind[c]), len(execByKind[c])))
	}
	o.notes = append(o.notes,
		fmt.Sprintf("serve-mix: %d jobs at %.2f jobs/s over %s (dataset %d, biglittle %d, population %d ok), executor busy %.3f of the window",
			len(jobs), rate, window, kinds[kindDataset], kinds[kindBigLittle], kinds[kindPopulation], float64(busyMS)/1e3/o.window),
		fmt.Sprintf("generator lateness p90 %.6f s (%d beyond); statsz: done %d, failed %d, rejected %d, shed %d",
			lateP90, beyond, st.JobsDone, st.JobsFailed, st.JobsRejected, st.JobsShed),
		fmt.Sprintf("whole process over the window, per job: %.3f GC cycles, %.2f MB allocated",
			float64(rt1.gcCycles-rt0.gcCycles)/float64(len(jobs)), float64(rt1.allocBytes-rt0.allocBytes)/(1<<20)/float64(len(jobs))))
	if !traced {
		return o, nil
	}

	// Traced: the per-job serve split from the client calls and the
	// server's timestamps, then the same jobs through the traced layers.
	o.layers = &layerTable{}
	tr := newTracer()
	o.tracer = tr
	at := func(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }
	ms := func(v int64) int64 { return at(time.UnixMilli(v)) }
	exec := make(map[int]float64)
	refused := 0
	for j, r := range runs {
		if r.refused {
			refused++
		}
		tr.add(span{Req: j, Name: "serve.submit", Start: at(r.submitAt), End: at(r.submitEnd), Failed: r.err != nil})
		s, ok := status[r.id]
		if r.err != nil || !ok {
			continue
		}
		tr.add(span{Req: j, Name: "serve.queue", Start: ms(s.CreatedMS), End: ms(s.StartedMS)})
		tr.add(span{Req: j, Name: "serve.exec", Start: ms(s.StartedMS), End: ms(s.FinishedMS)})
		tr.add(span{Req: j, Name: "serve.delivery", Start: ms(s.FinishedMS), End: at(r.received), N: int(r.bytes)})
		exec[j] = float64(s.FinishedMS-s.StartedMS) / 1e3
	}

	ts := &tracedSweep{t: tr, workers: workers, lanes: newLanes(workers)}
	for i, wj := range serveWarmups(seed) {
		if _, err := tracedJob(ts, -1-i, wj); err != nil {
			o.fail(fmt.Sprintf("traced warm-up %s: %v", kindNames[wj.kind], err))
		}
	}
	ok := make([]bool, len(runs))
	rts := make([]runtimeSample, len(runs))
	for j, r := range runs {
		r0 := readRuntime()
		d, err := tracedJob(ts, j, r.job)
		r1 := readRuntime()
		rts[j] = runtimeSample{r1.gcCycles - r0.gcCycles, r1.allocBytes - r0.allocBytes}
		if err == nil && r.err == nil {
			err = expectDigest(d, r.digest())
		}
		if err != nil {
			o.fail(fmt.Sprintf("traced job %d: %v", j, err))
			continue
		}
		ok[j] = true
	}
	var tdur, edur []float64
	byReq := tr.byRequest()
	for j, r := range runs {
		if !ok[j] {
			continue
		}
		spans := byReq[j]
		m := requestLayers(spans, workers)
		for _, s := range spans {
			switch s.Name {
			case "serve.submit":
				m["serve.submit_s"] = float64(s.dur()) / 1e9
			case "serve.queue":
				m["serve.queue_wait_s"] = float64(s.dur()) / 1e9
			case "serve.exec":
				m["serve.exec_s"] = float64(s.dur()) / 1e9
			case "serve.delivery":
				m["serve.delivery_s"] = float64(s.dur()) / 1e9
				m["serve.ndjson_bytes"] = float64(s.N)
			case spanRequest:
				tdur = append(tdur, float64(s.dur())/1e9)
			}
		}
		if fi, err := os.Stat(filepath.Join(e.dir, r.id+".journal")); err == nil {
			m["serve.journal_bytes"] = float64(fi.Size())
		}
		if x, ok := exec[j]; ok {
			edur = append(edur, x)
		}
		m["runtime.gc_n"] = float64(rts[j].gcCycles)
		m["runtime.alloc_mb"] = float64(rts[j].allocBytes) / (1 << 20)
		o.layers.add(m)
	}
	o.layers.set("serve.refused_n", float64(refused))
	o.layers.set("gen.late_s_p90", lateP90)
	if len(tdur) > 0 && len(edur) > 0 {
		o.layers.set("trace.overhead_frac", median(tdur)/median(edur)-1)
	}
	return o, nil
}

// checkJob fails a job that errored or was refused, or whose output digest
// differs from the committed one.
func checkJob(r *jobRun, g *goldenTable) error {
	if r.err != nil {
		return r.err
	}
	return expectDigest(r.digest(), pick(g.Serve[kindNames[r.job.kind]], r.job.slot))
}

// tracedJob re-drives one serve-mix job through the traced layers and
// returns its digest in served form.
func tracedJob(ts *tracedSweep, req int, j serveJob) (string, error) {
	spec := jobSpec(j.kind, j.slot)
	w := workload.ByName(spec.Workload)
	s, err := serve.SpecByName(spec.SoC, spec.Idle)
	if err != nil {
		return "", err
	}
	sp := ts.t.open(req, 0, spanRequest)
	if spec.Units == 0 {
		res, err := ts.matrix(req, sp.ID, w, s, spec.Configs, spec.Reps, spec.Seed)
		ts.t.close(sp)
		if err != nil {
			return "", err
		}
		return matrixDigest(res), nil
	}
	res, pops, err := ts.population(req, sp.ID, popSweep{
		w: w, spec: s, configs: spec.Configs, reps: spec.Reps, units: spec.Units,
		model: *spec.Population, thermal: recordOnly(len(s.Clusters)), seed: spec.Seed,
	})
	ts.t.close(sp)
	if err != nil {
		return "", err
	}
	return recordsDigest(pops, report.NewPopulationSummary(res)), nil
}
