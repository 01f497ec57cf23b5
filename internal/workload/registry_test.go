package workload

import (
	"testing"

	"repro/internal/soc"
)

// TestSessionKey pins the registry key shape: workload|spec, with an "+idle"
// marker when the spec carries C-state ladders (WithDefaultIdle keeps the
// spec name, so the marker is what separates the sessions).
func TestSessionKey(t *testing.T) {
	w := Quickstart()
	if got, want := SessionKey(w), "quickstart|dragonboard-apq8074"; got != want {
		t.Errorf("SessionKey = %q, want %q", got, want)
	}
	wi := Quickstart()
	wi.Profile.SoC = soc.WithDefaultIdle(soc.Dragonboard())
	if got, want := SessionKey(wi), "quickstart|dragonboard-apq8074+idle"; got != want {
		t.Errorf("idle SessionKey = %q, want %q", got, want)
	}
}

// TestSessionRegistryReusesSessions verifies one boot per key, session
// pointer identity across calls, and per-key fork counting.
func TestSessionRegistryReusesSessions(t *testing.T) {
	reg := NewSessionRegistry()
	w := Quickstart()
	s1 := reg.Session(w)
	s2 := reg.Session(w)
	if s1 != s2 {
		t.Error("same key booted two sessions")
	}
	if got := reg.Warm(); got != 1 {
		t.Errorf("Warm() = %d, want 1", got)
	}
	wi := Quickstart()
	wi.Profile.SoC = soc.WithDefaultIdle(soc.Dragonboard())
	if reg.Session(wi) == s1 {
		t.Error("idle variant shares the non-idle session")
	}
	if got := reg.Warm(); got != 2 {
		t.Errorf("Warm() = %d after idle boot, want 2", got)
	}
	forks := reg.Forks()
	if forks["quickstart|dragonboard-apq8074"] != 2 {
		t.Errorf("fork count = %d, want 2 (one per Session call)", forks["quickstart|dragonboard-apq8074"])
	}
	if forks["quickstart|dragonboard-apq8074+idle"] != 1 {
		t.Errorf("idle fork count = %d, want 1", forks["quickstart|dragonboard-apq8074+idle"])
	}
}
