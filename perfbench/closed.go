package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/experiment"
	"repro/internal/population"
	"repro/internal/soc"
	"repro/internal/workload"
)

// closedLoop is a closed-loop workload: one client that issues request j+1
// once request j has returned. Requests j < 0 are the set-up warm-ups.
type closedLoop struct {
	warmups int
	// requests is how many distinct timed requests the slot pool holds; a
	// window ends there rather than repeat an input.
	requests int
	// do issues request j through the public entry point: the timed call.
	do func(j int) (any, error)
	// traced re-drives request j through the layers, under parent.
	traced func(ts *tracedSweep, j int, parent int64) (any, error)
	// summarize digests a result and reads its work counts and the
	// simulated seconds it covered.
	summarize func(res any) (string, workCounts, float64)
	// golden is request j's expected digest.
	golden func(j int) string
}

func paperSoC() soc.Spec { return soc.Dragonboard() }

// paperStudy: the five Table I datasets in turn, each the full 17-config
// matrix x 5 reps on Dragonboard, a transient pool of workers per sweep.
func paperStudy(seed uint64, workers int, g *goldenTable) closedLoop {
	spec := paperSoC()
	return closedLoop{
		warmups:  len(workload.Datasets()),
		requests: (paperSlots - 1) * len(workload.Datasets()),
		do: func(j int) (any, error) {
			r := paperRequest(seed, j)
			return experiment.RunMatrix(r.w, spec, experiment.Options{Reps: paperReps, Seed: r.seed, Workers: workers})
		},
		traced: func(ts *tracedSweep, j int, parent int64) (any, error) {
			r := paperRequest(seed, j)
			return ts.matrix(j, parent, r.w, spec, nil, paperReps, r.seed)
		},
		summarize: func(res any) (string, workCounts, float64) {
			m := res.(*experiment.MatrixResult)
			return matrixDigest(m), matrixCounts(m), matrixSimS(m)
		},
		golden: func(j int) string {
			r := paperRequest(seed, j)
			return pick(g.Paper[r.w.Name], r.slot)
		},
	}
}

// runFleet is one fleet-biglittle request, called the way qoepop calls it:
// Workers set, no caller pool.
func runFleet(master uint64, workers int) (*experiment.PopulationResult, error) {
	p := fleetSweep(master)
	return experiment.RunPopulation(p.w, p.spec, experiment.PopulationOptions{
		Options: experiment.Options{Reps: p.reps, Seed: p.seed, Workers: workers, Configs: p.configs},
		Units:   p.units, Model: p.model, BaseThermal: p.thermal,
	})
}

func fleetSweep(master uint64) popSweep {
	spec := fleetSpec()
	return popSweep{
		w: workload.Quickstart(), spec: spec, configs: fleetConfigs, reps: 1, units: fleetUnits,
		model: population.DefaultModel(), thermal: recordOnly(len(spec.Clusters)), seed: master,
	}
}

// fleetBigLittle: an 8-unit quickstart population on big.LITTLE + idle per
// request, four configs x 1 rep, record-only thermal zones.
func fleetBigLittle(seed uint64, workers int, g *goldenTable) closedLoop {
	w, spec := workload.Quickstart(), fleetSpec()
	return closedLoop{
		warmups:  1,
		requests: fleetSlots - 1,
		do: func(j int) (any, error) {
			_, master := fleetRequest(seed, j)
			return runFleet(master, workers)
		},
		traced: func(ts *tracedSweep, j int, parent int64) (any, error) {
			_, master := fleetRequest(seed, j)
			res, _, err := ts.population(j, parent, fleetSweep(master))
			return res, err
		},
		summarize: func(res any) (string, workCounts, float64) {
			p := res.(*experiment.PopulationResult)
			return populationDigest(p), workCounts{Runs: p.Runs, Oracles: int(p.OracleEnergy.Count())},
				populationSimS(w, spec, p.Units, p.Reps, p.Runs)
		},
		golden: func(j int) string {
			k, _ := fleetRequest(seed, j)
			return pick(g.Fleet, k)
		},
	}
}

// expectDigest fails when a digest differs from the committed one.
func expectDigest(got, want string) error {
	if want == "" {
		return fmt.Errorf("no golden digest for this slot")
	}
	if got != want {
		return fmt.Errorf("output digest %s, want %s", got, want)
	}
	return nil
}

// minRequests is the fewest timed requests a run holds: enough for a p90
// with minBeyond samples beyond it.
const minRequests = 100

// maxWindow caps a window stretched by minRequests, so a run always ends
// well inside the contract's time limit.
const maxWindow = 120 * time.Second

// request issues request j untraced and checks its output.
func (cl closedLoop) request(j int) (lat, simS float64, err error) {
	t0 := time.Now()
	res, err := cl.do(j)
	lat = time.Since(t0).Seconds()
	if err != nil {
		return lat, 0, err
	}
	d, _, simS := cl.summarize(res)
	return lat, simS, expectDigest(d, cl.golden(j))
}

// runClosed measures the untraced end-to-end metrics.
func runClosed(cl closedLoop, window time.Duration, setups, workers int) (*outcome, error) {
	o := &outcome{}
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		for j := -cl.warmups; j < 0; j++ {
			if _, _, err := cl.request(j); err != nil {
				o.fail(fmt.Sprintf("warm-up %d: %v", j, err))
			}
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	ref, err := startReference(workers)
	if err != nil {
		return nil, err
	}
	hs := startHeapSampler()
	start := time.Now()
	var refTime time.Duration // spent on the reference task: not part of the window
	for j := 0; ; j++ {
		if el := time.Since(start) - refTime; el >= maxWindow || el >= window && len(o.latency) >= minRequests {
			break
		}
		if j == cl.requests {
			o.notes = append(o.notes, fmt.Sprintf("window ended after %d requests: the slot pool holds no more distinct inputs", j))
			break
		}
		if j%refEvery == 0 {
			t0 := time.Now()
			if err := ref.sample(1); err != nil {
				ref.stop()
				return nil, err
			}
			refTime += time.Since(t0)
		}
		lat, simS, err := cl.request(j)
		o.attempted++
		if err != nil {
			o.failed++
			o.fail(fmt.Sprintf("request %d: %v", j, err))
			o.latency = append(o.latency, math.Inf(1))
			continue
		}
		o.latency = append(o.latency, lat)
		o.simS += simS
	}
	o.window = (time.Since(start) - refTime).Seconds()
	o.heap, o.heapTop = hs.close()
	o.ref = ref.samples
	return o, ref.stop()
}

// refEvery is how often a closed loop times the reference task: before
// every refEvery-th request, while no request runs.
const refEvery = 4

// tracedRequests is how many requests a traced closed-loop run re-drives:
// the first of every run's requests (each run holds at least this many).
const tracedRequests = minRequests

// runClosedTraced re-drives the first tracedRequests requests of a run, each
// both through the public entry point and through the traced layers (order
// alternating), and checks that the two did the same work.
func runClosedTraced(cl closedLoop, workers int) *outcome {
	o := &outcome{layers: &layerTable{}}
	tr := newTracer()
	o.tracer = tr
	ts := &tracedSweep{t: tr, workers: workers}
	var lu, lt []float64
	rts := make(map[int]runtimeSample)
	for j := -cl.warmups; j < tracedRequests; j++ {
		var ures, tres any
		var uerr, terr error
		var du, dt float64
		var r0, r1 runtimeSample
		untraced := func() {
			r0 = readRuntime()
			t0 := time.Now()
			ures, uerr = cl.do(j)
			du = time.Since(t0).Seconds()
			r1 = readRuntime()
		}
		traced := func() {
			sp := tr.open(j, 0, spanRequest)
			tres, terr = cl.traced(ts, j, sp.ID)
			tr.close(sp)
			dt = float64(sp.dur()) / 1e9
		}
		if j%2 == 0 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
		if j >= 0 {
			o.attempted++
		}
		if err := sameWork(cl, j, ures, uerr, tres, terr); err != nil {
			if j >= 0 {
				o.failed++
			}
			o.fail(fmt.Sprintf("request %d: %v", j, err))
			continue
		}
		if j < 0 {
			continue
		}
		lu = append(lu, du)
		lt = append(lt, dt)
		rts[j] = runtimeSample{r1.gcCycles - r0.gcCycles, r1.allocBytes - r0.allocBytes}
	}
	for j, spans := range tr.byRequest() {
		if j < 0 {
			continue
		}
		rt, ok := rts[j]
		if !ok {
			continue // failed request
		}
		m := requestLayers(spans, workers)
		m["runtime.gc_n"] = float64(rt.gcCycles)
		m["runtime.alloc_mb"] = float64(rt.allocBytes) / (1 << 20)
		o.layers.add(m)
	}
	if len(lu) > 0 {
		o.layers.set("trace.overhead_frac", median(lt)/median(lu)-1)
	}
	return o
}

// sameWork checks one request's untraced and traced results: both must
// succeed, both digests must equal the golden one, and the work counts must
// match.
func sameWork(cl closedLoop, j int, ures any, uerr error, tres any, terr error) error {
	if uerr != nil {
		return fmt.Errorf("untraced: %w", uerr)
	}
	if terr != nil {
		return fmt.Errorf("traced: %w", terr)
	}
	ud, uc, _ := cl.summarize(ures)
	td, tc, _ := cl.summarize(tres)
	if err := expectDigest(td, ud); err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	if uc != tc {
		return fmt.Errorf("traced counts %+v, untraced %+v", tc, uc)
	}
	return expectDigest(ud, cl.golden(j))
}
