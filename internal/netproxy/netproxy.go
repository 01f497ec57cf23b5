// Package netproxy implements the paper's first future-work item: "one
// could circumvent [network non-determinism] by using a workload aware
// network proxy that creates a deterministic environment for network
// accesses". The proxy records the latency of each network access during a
// recording run and serves exactly the recorded latencies during replays, so
// network-dependent workloads become as repeatable as offline ones.
//
// Accesses are keyed by (resource, sequence): the k-th fetch of a resource
// replays the k-th recorded latency, which keeps distinct fetches of the
// same feed distinguishable.
package netproxy

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
	"repro/internal/snap"
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

// SaveState appends the proxy's replay state to b: the miss count and every
// resource's cursor. A device checkpoint saves it with the stateful
// services, so every fork off the checkpoint replays the proxy from the same
// position. Record mode needs nothing more: what it returns does not depend
// on what it has stored.
func (p *Proxy) SaveState(b *snap.Buf) {
	b.PutInt(int64(p.misses))
	b.PutInt(int64(len(p.cursor)))
	for k, c := range p.cursor {
		b.PutStr(k)
		b.PutInt(int64(c))
	}
}

// LoadState rewinds the proxy to the replay state SaveState wrote.
func (p *Proxy) LoadState(b *snap.Buf) {
	p.misses = int(b.Int())
	clear(p.cursor)
	for n := b.Int(); n > 0; n-- {
		k := b.Str()
		p.cursor[k] = int(b.Int())
	}
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
