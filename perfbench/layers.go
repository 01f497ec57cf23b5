package main

import (
	"fmt"
	"io"
	"math"
)

// layerMetric is one per-layer metric of the traced run. JSON marks the ones
// reported in the result line (BENCHMARK.json's per_layer list): those whose
// layer does work on every workload's traced run, so none reads a constant
// zero. The rest are printed in the per-layer table only: their layer is
// absent on some workload (population, stats, serve, the load generator),
// serve-mix's median job boots nothing on the warm pool (workload.boot_n)
// and triggers no collection (runtime.gc_n), or they count failures, which a
// correct run never has.
type layerMetric struct {
	Name string
	Unit string
	JSON bool
}

var layerMetrics = []layerMetric{
	{"experiment.self_s", "s", true},
	{"experiment.serial_s", "s", true},
	{"experiment.worker_busy_frac", "fraction", true},
	{"power.calibrate_s", "s", true},
	{"power.calibrate_n", "count", true},
	{"power.energy_s", "s", true},
	{"workload.record_s", "s", true},
	{"workload.record_n", "count", true},
	{"workload.annot_replay_s", "s", true},
	{"workload.boot_s", "s", false},
	{"workload.boot_n", "count", false},
	{"workload.replay_s", "s", true},
	{"workload.replay_n", "count", true},
	{"workload.replay_sim_s_per_s", "sim-s/cpu-s", true},
	{"video.frames", "count", true},
	{"video.distinct_frac", "fraction", true},
	{"annotate.build_s", "s", true},
	{"annotate.build_n", "count", true},
	{"match.match_s", "s", true},
	{"match.match_n", "count", true},
	{"match.lags", "count", true},
	{"match.fail_n", "count", false},
	{"oracle.build_s", "s", true},
	{"oracle.build_n", "count", true},
	{"oracle.candidates", "count", true},
	{"population.generate_s", "s", false},
	{"population.units", "count", false},
	{"stats.digest_s", "s", false},
	{"stats.digest_n", "count", false},
	{"runtime.gc_n", "count", false},
	{"runtime.alloc_mb", "MB", true},
	{"serve.submit_s", "s", false},
	{"serve.queue_wait_s", "s", false},
	{"serve.exec_s", "s", false},
	{"serve.delivery_s", "s", false},
	{"serve.refused_n", "count", false},
	{"serve.ndjson_bytes", "bytes", false},
	{"serve.journal_bytes", "bytes", false},
	{"gen.late_s_p90", "s", false},
	{"trace.overhead_frac", "fraction", true},
}

// requestLayers derives one request's per-layer numbers from its spans:
// self times summed over calls (CPU-seconds across workers), call counts and
// the work counts the spans carry. workers is the sweep's worker count.
func requestLayers(spans []span, workers int) map[string]float64 {
	self := selfTimes(spans)
	m := make(map[string]float64)
	var root *span
	var jobs [][2]int64
	var jobSum, replaySim, frames, distinct float64
	for i := range spans {
		s := &spans[i]
		st := float64(self[s.ID]) / 1e9
		count := func(layer string) {
			m[layer+"_s"] += st
			m[layer+"_n"]++
		}
		switch s.Name {
		case spanRequest:
			root = s
			m["experiment.self_s"] += st
		case spanMatrix:
			m["experiment.self_s"] += st
		case spanJob:
			m["experiment.self_s"] += st
			jobs = append(jobs, [2]int64{s.Start, s.End})
			jobSum += float64(s.dur())
		case spanCalibrate:
			count("power.calibrate")
		case spanEnergy:
			count("power.energy")
		case spanRecord:
			count("workload.record")
		case spanAnnotReplay:
			m["workload.annot_replay_s"] += st
			frames += float64(s.Frames)
			distinct += float64(s.Distinct)
		case spanAnnotate:
			count("annotate.build")
		case spanBoot:
			count("workload.boot")
		case spanReplay:
			count("workload.replay")
			replaySim += s.SimS
			frames += float64(s.Frames)
			distinct += float64(s.Distinct)
		case spanMatch:
			count("match.match")
			m["match.lags"] += float64(s.N)
			if s.Failed {
				m["match.fail_n"]++
			}
		case spanOracle:
			count("oracle.build")
			m["oracle.candidates"] += float64(s.N)
		case spanGenerate:
			m["population.generate_s"] += st
			m["population.units"]++
		case spanDigest:
			m["stats.digest_s"] += st
			m["stats.digest_n"] += float64(s.N)
		}
	}
	if root != nil && root.dur() > 0 {
		m["experiment.serial_s"] = float64(root.dur()-covered(root.Start, root.End, jobs)) / 1e9
		m["experiment.worker_busy_frac"] = jobSum / (float64(workers) * float64(root.dur()))
	}
	if r := m["workload.replay_s"]; r > 0 {
		m["workload.replay_sim_s_per_s"] = replaySim / r
	}
	m["video.frames"] = frames
	if frames > 0 {
		m["video.distinct_frac"] = distinct / frames
	}
	return m
}

// layerTable collects per-request layer numbers and reports their medians.
type layerTable struct {
	reqs []map[string]float64
	// scalars are run-level values (not per request), e.g. the generator's
	// lateness p90 and the tracing overhead.
	scalars map[string]float64
}

func (lt *layerTable) add(m map[string]float64) { lt.reqs = append(lt.reqs, m) }

func (lt *layerTable) set(name string, v float64) {
	if lt.scalars == nil {
		lt.scalars = make(map[string]float64)
	}
	lt.scalars[name] = v
}

// value returns a metric's run value: the scalar if set, else the median
// across requests (a request without the metric counts as 0).
func (lt *layerTable) value(name string) float64 {
	if v, ok := lt.scalars[name]; ok {
		return v
	}
	if len(lt.reqs) == 0 {
		return 0
	}
	xs := make([]float64, len(lt.reqs))
	for i, m := range lt.reqs {
		xs[i] = m[name]
	}
	return median(xs)
}

// print writes the per-layer table: metric, median across requests, unit.
func (lt *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "per-layer split, medians over %d requests:\n", len(lt.reqs))
	for _, lm := range layerMetrics {
		v := lt.value(lm.Name)
		note := ""
		if !lm.JSON {
			note = "  (table only)"
		}
		if math.Abs(v) >= 1e-3 || v == 0 {
			fmt.Fprintf(w, "  %-30s %14.6f %-12s%s\n", lm.Name, v, lm.Unit, note)
		} else {
			fmt.Fprintf(w, "  %-30s %14.3e %-12s%s\n", lm.Name, v, lm.Unit, note)
		}
	}
}
