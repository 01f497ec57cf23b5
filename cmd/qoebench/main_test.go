package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestQoebenchGolden pins the paper's figures byte for byte: qoebench's
// stdout at -reps 2 -with24h=false -v=false and its -json summaries must
// match the committed goldens. A deliberate change to any figure is
// regenerated with
//
//	go run ./cmd/qoebench -reps 2 -with24h=false -v=false \
//	    -json cmd/qoebench/testdata/summaries.golden.json \
//	    > cmd/qoebench/testdata/stdout.golden
//
// and justified in the change that moves it.
func TestQoebenchGolden(t *testing.T) {
	summaries := filepath.Join(t.TempDir(), "summaries.json")
	var stdout bytes.Buffer
	if err := run([]string{"-reps", "2", "-with24h=false", "-v=false", "-json", summaries}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(summaries)
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, "stdout.golden", stdout.Bytes())
	requireGolden(t, "summaries.golden.json", js)
}

// requireGolden compares got with testdata/name and reports the first
// differing line.
func requireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s drifted at line %d:\nwant %q\ngot  %q", name, i+1, w, g)
		}
	}
}
