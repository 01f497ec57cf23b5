package workload

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// SessionKey identifies the warm-session equivalence class of a workload: two
// workloads with the same key boot the same device. The key
// covers the workload (its device profile — apps, services, screen — is a
// function of the workload definition) and the SoC spec, including whether
// C-state ladders are installed (soc.WithDefaultIdle keeps the spec name, but
// an idle-enabled boot diverges from a ladder-free one). Thermal
// configuration and standing frequency caps are part of the equivalence
// class too: population sweeps vary both per unit under a shared spec-name
// prefix, so the key gains a fingerprint suffix whenever either is present
// (plain sweeps keep their historical keys).
func SessionKey(w *Workload) string {
	spec := w.Profile.SoCSpec()
	key := w.Name + "|" + spec.Name
	for _, cs := range spec.Clusters {
		if len(cs.IdleStates) > 0 {
			key += "+idle"
			break
		}
	}
	if w.Profile.Thermal.Enabled() || len(w.Profile.FreqCaps) > 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "tick=%v", w.Profile.Thermal.TickPeriod)
		for _, zc := range w.Profile.Thermal.Zones {
			fmt.Fprintf(h, "|z=%+v", zc)
		}
		for _, c := range w.Profile.FreqCaps {
			fmt.Fprintf(h, "|cap=%d", c)
		}
		key += fmt.Sprintf("+env%016x", h.Sum64())
	}
	return key
}

// SessionRegistry owns warmed ReplaySessions keyed by SessionKey and counts
// the forks served per key. It is the session-ownership layer long-running
// harnesses share across jobs: a sweep asks the registry for its workload's
// session instead of booting one, so device boot is paid once per
// (registry, key) for the registry's whole lifetime, not once per sweep.
//
// The registry's bookkeeping is mutex-guarded so stats can be read while a
// worker executes, but the sessions themselves are single-goroutine objects:
// one registry must serve one worker goroutine at a time (worker pools give
// each worker its own registry).
type SessionRegistry struct {
	mu          sync.Mutex
	sessions    map[string]*ReplaySession
	forks       map[string]int
	quarantines int
}

// NewSessionRegistry returns an empty registry.
func NewSessionRegistry() *SessionRegistry {
	return &SessionRegistry{
		sessions: make(map[string]*ReplaySession),
		forks:    make(map[string]int),
	}
}

// Session returns the warm session for the workload's key, booting one on
// first use, and counts one fork against the key. The returned session is
// recording-agnostic: run it with ReplayRecording.
func (r *SessionRegistry) Session(w *Workload) *ReplaySession {
	key := SessionKey(w)
	r.mu.Lock()
	sess := r.sessions[key]
	r.forks[key]++
	r.mu.Unlock()
	if sess == nil {
		// Boot outside the lock: stats readers must not stall behind a
		// device boot, and one registry serves one worker at a time, so no
		// other goroutine can race the insert.
		sess = NewReplaySession(w, nil)
		r.mu.Lock()
		r.sessions[key] = sess
		r.mu.Unlock()
	}
	return sess
}

// Evict quarantines the session under key: the entry is dropped so the next
// Session call for the key boots a cold replacement, and the registry counts
// one quarantine. This is the containment step after a panic escaped a
// replay — the session's device may hold poisoned mid-run state, and the
// only safe recovery is to throw it away.
// Evicting an unknown key is a no-op and reports false.
func (r *SessionRegistry) Evict(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[key]; !ok {
		return false
	}
	delete(r.sessions, key)
	r.quarantines++
	return true
}

// Release drops every warm session whose key matches, returning how many
// were dropped. Unlike Evict this is routine housekeeping, not containment:
// nothing is counted as a quarantine. Population sweeps release each unit's
// sessions once the unit is done — every unit has a distinct spec name, so
// without release a 10^5-unit sweep would strand 10^5 warm devices.
func (r *SessionRegistry) Release(match func(key string) bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for k := range r.sessions {
		if match(k) {
			delete(r.sessions, k)
			delete(r.forks, k)
			n++
		}
	}
	return n
}

// Quarantines returns how many sessions this registry has evicted.
func (r *SessionRegistry) Quarantines() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quarantines
}

// Each visits every warm session under the registry lock — the inspection
// surface the fault-injection suites use to reach (and deliberately damage)
// warm state. fn must not call back into the registry.
func (r *SessionRegistry) Each(fn func(key string, s *ReplaySession)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, s := range r.sessions {
		fn(k, s)
	}
}

// Warm returns the number of warmed sessions the registry owns.
func (r *SessionRegistry) Warm() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Forks returns a copy of the per-key fork counts (one count per Session
// call; the serve layer surfaces them in /statsz).
func (r *SessionRegistry) Forks() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.forks))
	for k, v := range r.forks {
		out[k] = v
	}
	return out
}
