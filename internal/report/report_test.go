package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/suggest"
	"repro/internal/video"
	"repro/internal/workload"
)

var cached *experiment.MatrixResult

func result(t *testing.T) *experiment.MatrixResult {
	t.Helper()
	if cached != nil {
		return cached
	}
	res, err := experiment.RunMatrix(workload.Quickstart(), soc.Dragonboard(), experiment.Options{Reps: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cached = res
	return res
}

func TestTableI(t *testing.T) {
	var buf bytes.Buffer
	TableI(&buf, []*experiment.MatrixResult{result(t)})
	out := buf.String()
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "quickstart") {
		t.Fatalf("table I output:\n%s", out)
	}
}

func TestFigure3MarksInputAndService(t *testing.T) {
	var buf bytes.Buffer
	Figure3(&buf, result(t), sim.Time(5*sim.Second))
	out := buf.String()
	if !strings.Contains(out, "A input received") {
		t.Errorf("missing input marker:\n%s", out)
	}
	if !strings.Contains(out, "ondemand") || !strings.Contains(out, "oracle") {
		t.Error("missing series names")
	}
}

// TestOracleTraceShape pins the oracle series of the Fig. 3 overlay:
// the base OPP outside lags, each lag's chosen OPP inside it, and no
// transition for a lag served at the base.
func TestOracleTraceShape(t *testing.T) {
	at := func(s float64) sim.Time { return sim.Time(s * float64(sim.Second)) }
	o := &oracle.ClusterOracle{
		Base:   oracle.ClusterChoice{OPPIndex: 5},
		PerLag: map[int]oracle.ClusterChoice{0: {OPPIndex: 12}, 1: {OPPIndex: 5}},
		Profile: &core.Profile{Lags: []core.Lag{
			{Index: 0, Begin: at(5), End: at(5.5)},
			{Index: 1, Begin: at(20), End: at(20.3)},
			{Index: 2, Begin: at(30), End: at(30.1), Spurious: true},
		}},
	}
	tr := oracleTrace(o)
	for _, c := range []struct {
		t    float64
		want int
	}{{2, 5}, {5.05, 12}, {5.6, 5}, {20.1, 5}, {30.05, 5}} {
		if got := tr.IndexAt(at(c.t)); got != c.want {
			t.Errorf("oracle trace at %.2fs on OPP %d, want %d", c.t, got, c.want)
		}
	}
	if n := tr.TransitionCount(); n != 3 {
		t.Errorf("oracle trace has %d points, want 3 (base, into and out of lag 0)", n)
	}
}

func TestFigure5MatchesPaperFormat(t *testing.T) {
	var buf bytes.Buffer
	Figure5(&buf)
	out := buf.String()
	// The exact tracking-id line from the paper's Fig. 5.
	if !strings.Contains(out, "0003 0039 00000003") {
		t.Errorf("missing tracking id line:\n%s", out)
	}
	if !strings.Contains(out, "0003 0039 ffffffff") {
		t.Errorf("missing release line:\n%s", out)
	}
	if !strings.Contains(out, "/dev/input/event1") {
		t.Error("missing device node")
	}
}

func TestFigure7CompressesZeros(t *testing.T) {
	res := result(t)
	// Use the annotation video indirectly: rebuild a tiny capture.
	v := video.New(30)
	pix := make([]uint8, 54*96)
	a := video.NewFrame(pix)
	pix2 := make([]uint8, 54*96)
	pix2[0] = 200
	b := video.NewFrame(pix2)
	for i := 0; i < 10; i++ {
		v.Append(a)
	}
	v.Append(b)
	for i := 0; i < 40; i++ {
		v.Append(b)
	}
	var buf bytes.Buffer
	Figure7(&buf, v, 0, v.Len()-1, suggest.Config{MinStill: 1})
	out := buf.String()
	if !strings.Contains(out, "{") || !strings.Contains(out, "x0}") {
		t.Errorf("zeros not run-length compressed:\n%s", out)
	}
	if !strings.Contains(out, "suggested lag ending frames (1)") {
		t.Errorf("wrong suggestion count:\n%s", out)
	}
	_ = res
}

func TestFigures10Through14Render(t *testing.T) {
	res := result(t)
	results := []*experiment.MatrixResult{res, res}
	checks := []struct {
		name   string
		render func(*bytes.Buffer)
		expect []string
	}{
		{"fig10", func(b *bytes.Buffer) { Figure10(b, results, map[string][4]int{"24hour": {100, 50, 140, 10}}) },
			[]string{"Taps", "Spurious", "24hour", "average"}},
		{"fig11", func(b *bytes.Buffer) { Figure11(b, res) },
			[]string{"median", "0.30 GHz", "ondemand", "kernel density"}},
		{"fig12", func(b *bytes.Buffer) { Figure12(b, res) },
			[]string{"irritation", "E/oracle", "oracle", "conservative"}},
		{"fig13", func(b *bytes.Buffer) { Figure13(b, res) },
			[]string{"energy (J)", "fixed", "gov", "oracle"}},
		{"fig14", func(b *bytes.Buffer) { Figure14(b, results) },
			[]string{"energy normalised to oracle", "irritation in seconds", "avg"}},
		{"headlines", func(b *bytes.Buffer) { Headlines(b, results) },
			[]string{"HEADLINE", "27%", "47%", "conservative"}},
	}
	for _, c := range checks {
		var buf bytes.Buffer
		c.render(&buf)
		for _, want := range c.expect {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s: missing %q in output:\n%s", c.name, want, buf.String())
			}
		}
	}
}

func TestBarClamps(t *testing.T) {
	if bar(10, 5, 8) != "########" {
		t.Error("bar overflow not clamped")
	}
	if bar(-1, 5, 8) != "" || bar(3, 0, 8) != "" {
		t.Error("bar degenerate cases")
	}
}
