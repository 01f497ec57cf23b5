package workload

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/governor"
	"repro/internal/soc"
	"repro/internal/thermal"
)

// fuzzSpecs are the platform shapes TestForkEqualsColdRun forks on.
var fuzzSpecs = []struct {
	name  string
	apply func(t *testing.T, w *Workload)
}{
	{"dragonboard", func(*testing.T, *Workload) {}},
	{"biglittle", func(_ *testing.T, w *Workload) { w.Profile.SoC = soc.BigLittle44() }},
	{"biglittle-idle", func(_ *testing.T, w *Workload) { w.Profile.SoC = soc.WithDefaultIdle(soc.BigLittle44()) }},
	{"biglittle-thermal", func(t *testing.T, w *Workload) {
		w.Profile.SoC = soc.BigLittle44()
		w.Profile.Thermal = thermal.PhoneConfig(2, 30, 5)
		model, err := w.Profile.SoC.Calibrate(0)
		if err != nil {
			t.Fatal(err)
		}
		w.Profile.ThermalPower = model
	}},
}

// fuzzWorkloads are the workloads the fuzz target replays.
var fuzzWorkloads = []func() *Workload{Quickstart, LegacyBench}

// fuzzGovernors are the per-cluster governors successive forks cycle
// through, so a fork follows a run whose governor differs from its own.
var fuzzGovernors = []func(soc.ClusterSpec) governor.Governor{
	func(soc.ClusterSpec) governor.Governor { return governor.NewOndemand() },
	func(soc.ClusterSpec) governor.Governor { return governor.NewInteractive() },
	func(soc.ClusterSpec) governor.Governor { return governor.NewConservative() },
	func(cs soc.ClusterSpec) governor.Governor { return governor.NewFixed(cs.Table, len(cs.Table)/2) },
}

// fuzzRecordings caches one recording per (workload, spec): recording is
// not what the target checks, and every fuzz input shares it.
var fuzzRecordings = struct {
	sync.Mutex
	m map[[2]int]fuzzRecording
}{m: map[[2]int]fuzzRecording{}}

type fuzzRecording struct {
	w   *Workload
	rec *Recording
}

func recordForFuzz(t *testing.T, wl, spec int) (*Workload, *Recording) {
	fuzzRecordings.Lock()
	defer fuzzRecordings.Unlock()
	key := [2]int{wl, spec}
	if r, ok := fuzzRecordings.m[key]; ok {
		return r.w, r.rec
	}
	w := fuzzWorkloads[wl]()
	fuzzSpecs[spec].apply(t, w)
	rec, _, err := w.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	fuzzRecordings.m[key] = fuzzRecording{w, rec}
	return w, rec
}

// FuzzForkEqualsCold forks 1–4 runs in a row off one replay session — zero
// to three burn-in forks, then one more — each with its own seed and
// governor. Every fork must equal a cold replay of the same run, and no fork
// may change the artefacts of an earlier one: the aliasing that once let
// Seal re-point a retained run's traces at the next run's. The seed corpus
// holds one entry per spec, each with burn-in forks, so go test runs each
// once; the thermal entry replays legacybench, whose six-minute window
// crosses the trip, so throttle state is forked too.
func FuzzForkEqualsCold(f *testing.F) {
	for i := range fuzzSpecs {
		f.Add(uint8(i%len(fuzzWorkloads)), uint8(i), uint64(42+i), uint8(1+i%3))
	}
	f.Fuzz(func(t *testing.T, wl, spec uint8, seed uint64, burnIns uint8) {
		w, rec := recordForFuzz(t, int(wl)%len(fuzzWorkloads), int(spec)%len(fuzzSpecs))
		clusters := w.Profile.SoCSpec().Clusters
		sess := NewReplaySession(w, rec)
		forks := int(burnIns)%4 + 1
		arts := make([]*RunArtifacts, forks)
		hashes := make([]string, forks)
		for i := range arts {
			runSeed := seed + uint64(i)
			mk := fuzzGovernors[(int(seed%uint64(len(fuzzGovernors)))+i)%len(fuzzGovernors)]
			govs := func() []governor.Governor {
				out := make([]governor.Governor, len(clusters))
				for c, cs := range clusters {
					out[c] = mk(cs)
				}
				return out
			}
			name := mk(clusters[0]).Name()
			label := fmt.Sprintf("%s/%s fork %d of %d (%s, seed %d)",
				w.Name, fuzzSpecs[int(spec)%len(fuzzSpecs)].name, i+1, forks, name, runSeed)
			arts[i] = sess.Replay(govs(), name, runSeed, true)
			hashes[i] = fullHash(arts[i])
			requireSameRun(t, label, coldReplay(w, rec, govs(), name, runSeed, true), arts[i])
			for j := 0; j < i; j++ {
				if h := fullHash(arts[j]); h != hashes[j] {
					t.Fatalf("%s: changed the artefacts of fork %d: %s -> %s", label, j+1, hashes[j], h)
				}
			}
		}
	})
}
