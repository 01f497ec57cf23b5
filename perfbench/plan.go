package main

import (
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/population"
	"repro/internal/serve"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Every input the program sees is generated here from the workload seed: the
// per-request master seeds, the population seeds, the serve-mix order and
// the Poisson arrival times. Master seeds come from fixed-size slot pools so
// that each slot's expected output digest can be committed (golden.json):
// a run starts at a seed-derived slot and advances one slot per round, so no
// sweep repeats within a run and another seed draws other inputs.

// Slot pool sizes. Each is several times the slots one run uses: a 35-s
// closed-loop window holds at most about 55 paper-study rounds and 300
// fleet-biglittle requests on the reference VM. A closed loop whose pool
// would wrap around ends its window instead (closedLoop.requests), so no run
// ever repeats an input.
const (
	paperSlots = 128  // paper-study rounds (one round = the five datasets)
	fleetSlots = 1024 // fleet-biglittle requests
	serveSlots = 128  // serve-mix fresh jobs, per job kind
)

// Fleet and served-population settings.
var (
	fleetConfigs = []string{"2.15 GHz", "ondemand", "interactive", "powersave/interactive"}
	// paperSubset is the serve-mix dataset job's 5-config slice.
	paperSubset = []string{"0.65 GHz", "1.27 GHz", "2.15 GHz", "interactive", "ondemand"}
)

const (
	paperReps  = 5 // the paper's repetitions per config
	fleetUnits = 8
	serveUnits = 4
	serveReps  = 2 // reps of the serve-mix dataset job
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func label(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// slotSeed is the master seed of slot k of a pool. It is never 0 (the sweeps
// read 0 as "default seed 1").
func slotSeed(pool string, k int) uint64 { return splitmix64(label(pool)^uint64(k)) | 1 }

// firstSlot is where a run with the given workload seed starts in a pool.
func firstSlot(seed uint64, pool string, n int) int {
	return int(splitmix64(seed^label(pool)) % uint64(n))
}

// rng returns a deterministic stream for one use of the workload seed.
func rng(seed uint64, use string) *rand.Rand {
	return rand.New(rand.NewPCG(seed, label(use)))
}

func fleetSpec() soc.Spec { return soc.WithDefaultIdle(soc.BigLittle44()) }

// recordOnly is the record-only thermal environment: zones traced, no trip.
func recordOnly(n int) thermal.Config { return thermal.PhoneConfig(n, -1, 0) }

// paperReq is one paper-study request: one Table I dataset's full sweep.
type paperReq struct {
	w    *workload.Workload
	slot int
	seed uint64
}

// paperRequest returns request j of a run; j < 0 are the set-up warm-ups
// (one per dataset, from the slot before the run's first).
func paperRequest(seed uint64, j int) paperReq {
	ds := workload.Datasets()
	d, round := j%len(ds), j/len(ds)
	if j < 0 {
		d, round = j+len(ds), -1
	}
	k := (firstSlot(seed, "paper-study", paperSlots) + round + paperSlots) % paperSlots
	return paperReq{w: ds[d], slot: k, seed: slotSeed("paper-study", k)}
}

// fleetRequest returns the slot of request j (j = -1 is the warm-up).
func fleetRequest(seed uint64, j int) (slot int, master uint64) {
	k := (firstSlot(seed, "fleet-biglittle", fleetSlots) + j + fleetSlots) % fleetSlots
	return k, slotSeed("fleet-biglittle", k)
}

// Serve-mix job kinds.
const (
	kindDataset    = iota // a Table I dataset on Dragonboard, 5 configs x 2 reps
	kindBigLittle         // the full quickstart big.LITTLE + idle matrix
	kindPopulation        // a 4-unit quickstart population, record-only zones
	numKinds
)

var kindNames = [numKinds]string{"dataset", "biglittle", "population"}

// serveJob is one scheduled serve-mix job.
type serveJob struct {
	kind int
	slot int
	due  time.Duration // arrival offset from the window start
}

// jobSpec is the wire spec of a serve-mix job in slot k of its kind.
func jobSpec(kind, k int) serve.JobSpec {
	seed := slotSeed("serve-mix/"+kindNames[kind], k)
	switch kind {
	case kindDataset:
		ds := workload.Datasets()
		return serve.JobSpec{Workload: ds[k%len(ds)].Name, Configs: paperSubset, Reps: serveReps, Seed: seed}
	case kindBigLittle:
		return serve.JobSpec{Workload: "quickstart", SoC: "biglittle", Idle: true, Reps: 1, Seed: seed}
	}
	m := population.DefaultModel()
	return serve.JobSpec{
		Workload: "quickstart", SoC: "biglittle", Idle: true, Configs: fleetConfigs, Reps: 1, Seed: seed,
		Units: serveUnits, Population: &m, ThermalTripC: -1,
	}
}

// serveWarmups are the set-up jobs: one of each kind, from slots a run's
// fresh draws reach last.
func serveWarmups(seed uint64) []serveJob {
	out := make([]serveJob, numKinds)
	for c := range out {
		k := (firstSlot(seed, "serve-mix/"+kindNames[c], serveSlots) + serveSlots - 1) % serveSlots
		out[c] = serveJob{kind: c, slot: k}
	}
	return out
}

// maxServeJobs is the most jobs one schedule may hold: even if every job of
// a kind were fresh, its fresh slots would stop short of the warm-up's.
const maxServeJobs = numKinds * (serveSlots - 1)

// serveSchedule is the open-loop arrival plan: n = rate x window jobs at
// uniform order statistics over the window — a Poisson process conditioned
// on its count, so every seed offers the same load — with the kinds taken
// round-robin in a seeded order per cycle, and each job's slot either fresh
// or (with probability 1/2) a repeat of an earlier slot of its kind.
func serveSchedule(seed uint64, rate float64, window time.Duration) []serveJob {
	n := int(rate*window.Seconds() + 0.5)
	arr := rng(seed, "serve-mix/arrivals")
	due := make([]float64, n)
	for i := range due {
		due[i] = arr.Float64() * window.Seconds()
	}
	sort.Float64s(due)

	mix := rng(seed, "serve-mix/mix")
	var fresh [numKinds]int
	var used [numKinds][]int
	var first [numKinds]int
	for c := range first {
		first[c] = firstSlot(seed, "serve-mix/"+kindNames[c], serveSlots)
	}
	jobs := make([]serveJob, n)
	var order []int
	for i := range jobs {
		if len(order) == 0 {
			order = mix.Perm(numKinds)
		}
		c := order[0]
		order = order[1:]
		var k int
		if len(used[c]) > 0 && mix.IntN(2) == 0 {
			k = used[c][mix.IntN(len(used[c]))]
		} else {
			k = (first[c] + fresh[c]) % serveSlots
			fresh[c]++
			used[c] = append(used[c], k)
		}
		jobs[i] = serveJob{kind: c, slot: k, due: time.Duration(due[i] * float64(time.Second))}
	}
	return jobs
}
