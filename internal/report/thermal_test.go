package report

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// TestThermalSummaryGolden pins the sustained thermal study byte for byte:
// the export marathon on big.LITTLE, twice back to back, under the three
// configurations of examples/thermal, record-only and throttled. On a
// mismatch the new table is written to a temporary file; a deliberate change
// copies it over testdata/thermal_summary.golden and is justified in the
// change that moves it.
func TestThermalSummaryGolden(t *testing.T) {
	w := workload.ExportMarathon()
	w.Profile.SoC = soc.BigLittle44()
	configs := []experiment.Config{
		{Name: "performance", OPPIndex: -1,
			NewGovernor: func() governor.Governor { return governor.Performance(power.Snapdragon8074()) }},
		{Name: "interactive", OPPIndex: -1,
			NewGovernor: func() governor.Governor { return governor.NewInteractive() }},
		{Name: "ondemand", OPPIndex: -1,
			NewGovernor: func() governor.Governor { return governor.NewOndemand() }},
	}
	res, err := experiment.RunSustained(w, configs, experiment.SustainedOptions{
		Options: experiment.Options{Reps: 1, Seed: 1},
		Repeats: 2,
		Thermal: thermal.PhoneConfig(2, 30, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ThermalSummary(&got, res); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "thermal_summary.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		f, err := os.CreateTemp("", "thermal_summary.*.golden")
		if err != nil {
			t.Fatal(err)
		}
		f.Write(got.Bytes())
		f.Close()
		t.Fatalf("thermal summary drifted from testdata/thermal_summary.golden (new table in %s):\nwant:\n%s\ngot:\n%s",
			f.Name(), want, got.Bytes())
	}
}
