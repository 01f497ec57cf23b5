// Package netproxy implements the paper's first future-work item: "one
// could circumvent [network non-determinism] by using a workload aware
// network proxy that creates a deterministic environment for network
// accesses". The proxy records the latency of each network access during a
// recording run and serves exactly the recorded latencies during replays, so
// network-dependent workloads become as repeatable as offline ones.
//
// Accesses are keyed by (resource, sequence): the k-th fetch of a resource
// replays the k-th recorded latency, which keeps distinct fetches of the
// same feed distinguishable. Every device boot, cold or forked, rewinds the
// proxy, so each run replays the recording from its first access.
package netproxy

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Mode selects proxy behaviour.
type Mode int

const (
	// Record passes accesses through (with live jitter applied by the
	// caller) and stores the observed latencies.
	Record Mode = iota
	// Replay serves recorded latencies; unknown accesses fall back to the
	// live latency and are reported via Misses.
	Replay
)

// Proxy is a deterministic network environment for one workload.
type Proxy struct {
	mode    Mode
	entries map[string][]sim.Duration // resource -> latencies in fetch order
	cursor  map[string]int            // replay position per resource
	misses  int
}

// New returns an empty proxy in the given mode.
func New(mode Mode) *Proxy {
	return &Proxy{
		mode:    mode,
		entries: make(map[string][]sim.Duration),
		cursor:  make(map[string]int),
	}
}

// Mode returns the proxy mode.
func (p *Proxy) Mode() Mode { return p.mode }

// Access resolves one network access: in Record mode it stores and returns
// live; in Replay mode it returns the recorded latency for this resource's
// next fetch, falling back to live when the recording has no entry.
func (p *Proxy) Access(resource string, live sim.Duration) sim.Duration {
	switch p.mode {
	case Record:
		p.entries[resource] = append(p.entries[resource], live)
		return live
	case Replay:
		i := p.cursor[resource]
		lat := p.entries[resource]
		if i >= len(lat) {
			p.misses++
			return live
		}
		p.cursor[resource] = i + 1
		return lat[i]
	}
	return live
}

// Misses reports replay accesses that had no recorded entry.
func (p *Proxy) Misses() int { return p.misses }

// AccessCount returns the number of recorded accesses.
func (p *Proxy) AccessCount() int {
	n := 0
	for _, l := range p.entries {
		n += len(l)
	}
	return n
}

// ReplayCopy returns a fresh Replay-mode proxy over this proxy's recorded
// entries (cursors reset), so multiple replays never share mutable state.
func (p *Proxy) ReplayCopy() *Proxy {
	cp := New(Replay)
	for k, v := range p.entries {
		cp.entries[k] = append([]sim.Duration(nil), v...)
	}
	return cp
}

// Rewind moves every replay cursor back to the first recorded access and
// zeroes the miss count; recorded entries stay. The device's Seal calls it
// before every run.
func (p *Proxy) Rewind() {
	clear(p.cursor)
	p.misses = 0
}

type jsonProxy struct {
	Entries map[string][]sim.Duration `json:"entries"`
}

// Save serialises the recorded accesses as JSON.
func (p *Proxy) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(jsonProxy{Entries: p.entries})
}

// Load reads a proxy recording saved by Save, returning it in Replay mode.
func Load(r io.Reader) (*Proxy, error) {
	var in jsonProxy
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("netproxy: decode: %w", err)
	}
	p := New(Replay)
	if in.Entries != nil {
		p.entries = in.Entries
	}
	return p, nil
}

// Resources lists recorded resource names, sorted.
func (p *Proxy) Resources() []string {
	var out []string
	for k := range p.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
