package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Output checks. Every request folds its simulated outputs into a digest:
// a sweep's run records and summary (per-config mean energy and irritation,
// oracle energy), a population's percentile summary, a served job's records
// sorted by index plus its summary. The digest is compared with the one
// committed in golden.json for the request's slot, produced by the same
// entry points on the commit that defined the benchmark. The simulator is
// deterministic, so a mismatch is a correctness failure, never noise.

//go:embed golden.json
var goldenJSON []byte

// goldenTable holds the expected digest of every slot, by workload.
type goldenTable struct {
	Paper map[string][]string `json:"paper-study"` // dataset name -> slot
	Fleet []string            `json:"fleet-biglittle"`
	Serve map[string][]string `json:"serve-mix"` // job kind name -> slot
}

func loadGolden() (*goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// pick returns slot k of a digest list, "" when the table lacks it.
func pick(list []string, k int) string {
	if k < 0 || k >= len(list) {
		return ""
	}
	return list[k]
}

// digestOf hashes the JSON encodings of items, one per line.
func digestOf[T any](items []T) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range items {
		if err := enc.Encode(&items[i]); err != nil {
			return "unencodable: " + err.Error()
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// recordsDigest folds sorted result records and a terminal summary.
func recordsDigest[R any](recs []R, summary any) string {
	items := make([]any, 0, len(recs)+1)
	for i := range recs {
		items = append(items, recs[i])
	}
	return digestOf(append(items, summary))
}

// matrixDigest is the digest of a matrix sweep in its served form: run
// records in sweep order, then the summary.
func matrixDigest(res *experiment.MatrixResult) string {
	return recordsDigest(report.MatrixRunRecords(res), report.NewMatrixSummary(res))
}

// populationDigest is the digest of a population sweep's summary: p50/p95/p99
// per config plus the oracle-energy row.
func populationDigest(res *experiment.PopulationResult) string {
	return digestOf([]any{report.NewPopulationSummary(res)})
}

// workCounts are the work counts a sweep's result shows: config runs,
// oracle candidates, matched (non-spurious) lags and oracles.
type workCounts struct {
	Runs, Candidates, Lags, Oracles int
}

func matrixCounts(res *experiment.MatrixResult) workCounts {
	var c workCounts
	for _, rs := range res.Runs {
		for _, r := range rs {
			c.Runs++
			c.Lags += len(r.Profile.Actual())
		}
	}
	for _, cs := range res.Candidates {
		c.Candidates += len(cs)
		if len(res.Spec.Clusters) > 1 {
			for _, r := range cs {
				c.Lags += len(r.Profile.Actual())
			}
		}
	}
	c.Oracles = len(res.Oracles)
	return c
}

// servedDigest runs a serve-mix job spec in-process through the entry point
// the server runs it with and digests it in its served form.
func servedDigest(spec serve.JobSpec) (string, error) {
	w := workload.ByName(spec.Workload)
	if w == nil {
		return "", fmt.Errorf("unknown workload %q", spec.Workload)
	}
	s, err := serve.SpecByName(spec.SoC, spec.Idle)
	if err != nil {
		return "", err
	}
	opts := experiment.Options{Reps: spec.Reps, Seed: spec.Seed, Configs: spec.Configs}
	if spec.Units == 0 {
		res, err := experiment.RunMatrix(w, s, opts)
		if err != nil {
			return "", err
		}
		return matrixDigest(res), nil
	}
	var pops []report.PopRunRecord
	res, err := experiment.RunPopulation(w, s, experiment.PopulationOptions{
		Options: opts, Units: spec.Units, Model: *spec.Population, BaseThermal: recordOnly(len(s.Clusters)),
		OnPop: func(pr experiment.PopRun) { pops = append(pops, report.NewPopRunRecord(pr)) },
	})
	if err != nil {
		return "", err
	}
	return recordsDigest(pops, report.NewPopulationSummary(res)), nil
}

// genGolden computes the expected digest of every slot and writes the table.
// It runs the public entry points only, so on the commit that defines the
// benchmark it records that commit's outputs.
func genGolden(path string) error {
	workers := runtime.NumCPU()
	g := goldenTable{Paper: map[string][]string{}, Serve: map[string][]string{}}
	for _, ds := range workload.Datasets() {
		for k := 0; k < paperSlots; k++ {
			res, err := experiment.RunMatrix(ds, paperSoC(), experiment.Options{Reps: paperReps, Seed: slotSeed("paper-study", k), Workers: workers})
			if err != nil {
				return err
			}
			g.Paper[ds.Name] = append(g.Paper[ds.Name], matrixDigest(res))
		}
		fmt.Fprintf(os.Stderr, "golden: paper-study %s done\n", ds.Name)
	}
	for k := 0; k < fleetSlots; k++ {
		res, err := runFleet(slotSeed("fleet-biglittle", k), workers)
		if err != nil {
			return err
		}
		g.Fleet = append(g.Fleet, populationDigest(res))
	}
	fmt.Fprintln(os.Stderr, "golden: fleet-biglittle done")
	for c := 0; c < numKinds; c++ {
		for k := 0; k < serveSlots; k++ {
			d, err := servedDigest(jobSpec(c, k))
			if err != nil {
				return err
			}
			g.Serve[kindNames[c]] = append(g.Serve[kindNames[c]], d)
		}
		fmt.Fprintf(os.Stderr, "golden: serve-mix %s done\n", kindNames[c])
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
