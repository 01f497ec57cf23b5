package experiment

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSummariseAndRoundTrip(t *testing.T) {
	res := quickResult(t, 2)
	s := res.Summarise()
	if s.Workload != "quickstart" || s.Reps != 2 {
		t.Fatalf("summary header: %+v", s)
	}
	if s.BaseOPP == "" {
		t.Fatal("missing oracle base OPP")
	}
	if len(s.Configs) != 17 {
		t.Fatalf("configs = %d", len(s.Configs))
	}
	if s.InputCounts["actual"] != 6 || s.InputCounts["spurious"] != 1 {
		t.Fatalf("input counts: %+v", s.InputCounts)
	}
	for _, cs := range s.Configs {
		if cs.MeanEnergyJ <= 0 || cs.NormEnergy <= 0 {
			t.Fatalf("%s: degenerate energy summary %+v", cs.Name, cs)
		}
		if cs.LagCount != 6 || cs.SpuriousLags != 1 {
			t.Fatalf("%s: lag counts %d/%d", cs.Name, cs.LagCount, cs.SpuriousLags)
		}
	}
	if b, ok := s.LagStats["ondemand"]; !ok || b.N != 12 {
		t.Fatalf("lag stats missing or wrong n: %+v", s.LagStats["ondemand"])
	}

	var buf bytes.Buffer
	if err := WriteSummaries(&buf, []*MatrixResult{res}); err != nil {
		t.Fatal(err)
	}
	var back []*Summary
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Workload != "quickstart" {
		t.Fatalf("round trip: %+v", back)
	}
	if back[0].OracleJ != s.OracleJ {
		t.Fatal("oracle energy lost in round trip")
	}
}
