// Package faultinject provides deterministic fault plans for the chaos
// suites: a Plan arms faults at named sites ("the Nth hit of site X fires"),
// instrumented code asks the plan whether to fail, and everything the plan
// decides is a pure function of how it was armed — no wall clock, no global
// randomness — so recovery behaviour can be pinned bit-for-bit where the
// underlying simulation is deterministic.
//
// The package deliberately owns no hook points of its own. Faults activate
// through the callbacks the instrumented layers already expose (a sweep's
// "start" updates through experiment.Options.OnRun, the serve layer's job
// hook, the journal write hook): a test arms a Plan and wires plan.Fire
// into the hook it wants to sabotage. Injected panics carry an Injected value so recovery paths and
// assertions can tell a planned fault from a real bug.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// Plan is a deterministic fault schedule. Arm faults with Arm, then have the
// instrumented hook call Fire(site) on every pass through the site: the call
// counts the hit and reports whether a fault was armed for exactly that hit.
// A Plan is safe for concurrent use by any number of goroutines.
type Plan struct {
	mu    sync.Mutex
	armed map[string]map[int64]bool
	hits  map[string]int64
	fired map[string]int
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{
		armed: make(map[string]map[int64]bool),
		hits:  make(map[string]int64),
		fired: make(map[string]int),
	}
}

// Arm schedules a fault on the hit-th future hit of site (1-based: Arm(s, 1)
// fires on the very next Fire(s)).
func (p *Plan) Arm(site string, hit int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.armed[site] == nil {
		p.armed[site] = make(map[int64]bool)
	}
	p.armed[site][hit] = true
}

// Fire counts one hit of site and reports whether a fault was armed for it.
// Fired faults are consumed: the same armed hit never fires twice.
func (p *Plan) Fire(site string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits[site]++
	n := p.hits[site]
	if p.armed[site][n] {
		delete(p.armed[site], n)
		p.fired[site]++
		return true
	}
	return false
}

// Hits returns how many times site has been hit so far.
func (p *Plan) Hits(site string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[site]
}

// Fired returns how many faults have fired at site.
func (p *Plan) Fired(site string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[site]
}

// Pending reports whether any armed fault at site has not fired yet.
func (p *Plan) Pending(site string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.armed[site]) > 0
}

// Injected is the value an injected panic carries, so recovery machinery and
// test assertions can distinguish a planned fault from a genuine bug.
type Injected struct {
	// Site names the fault site; Hit is the site hit that fired it.
	Site string
	Hit  int64
}

func (i Injected) String() string {
	return fmt.Sprintf("faultinject: injected fault at %s (hit %d)", i.Site, i.Hit)
}

// PanicNow panics with an Injected value for the site's current hit count.
// Call it from a hook guarded by Fire:
//
//	if plan.Fire("experiment.run") { faultinject.PanicNow(plan, "experiment.run") }
func PanicNow(p *Plan, site string) {
	panic(Injected{Site: site, Hit: p.Hits(site)})
}

// IsInjected reports whether a recovered panic value (or an error whose chain
// mentions it) came from PanicNow.
func IsInjected(v any) bool {
	switch x := v.(type) {
	case Injected:
		return true
	case error:
		return strings.Contains(x.Error(), "faultinject: injected fault")
	case string:
		return strings.Contains(x, "faultinject: injected fault")
	}
	return false
}

// ErrCut is the error a cut response body returns once its byte budget is
// spent — what a connection reset mid-record looks like to a streaming
// reader.
var ErrCut = errors.New("faultinject: stream cut")

// CutTransport wraps an http.RoundTripper and cuts the body of selected
// responses after a byte budget — a deterministic connection reset
// mid-NDJSON-record. Responses are selected by URL path suffix and by the
// plan: each matching response counts one hit of Site, and an armed hit gets
// its body cut after Bytes bytes. Non-matching traffic passes through
// untouched.
type CutTransport struct {
	// Base is the wrapped transport (nil → http.DefaultTransport).
	Base http.RoundTripper
	// PathSuffix selects which requests are candidates (e.g. "/results").
	// Empty matches every request.
	PathSuffix string
	// Plan and Site drive which candidate responses are cut.
	Plan *Plan
	Site string
	// Bytes is the body budget before the cut (0 → 64).
	Bytes int
}

// RoundTrip implements http.RoundTripper.
func (t *CutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil || (t.PathSuffix != "" && !strings.HasSuffix(req.URL.Path, t.PathSuffix)) {
		return resp, err
	}
	if t.Plan != nil && t.Plan.Fire(t.Site) {
		budget := t.Bytes
		if budget <= 0 {
			budget = 64
		}
		resp.Body = &cutBody{rc: resp.Body, remaining: budget}
	}
	return resp, err
}

// cutBody yields remaining bytes, then fails every read with ErrCut.
type cutBody struct {
	rc        io.ReadCloser
	remaining int
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, ErrCut
	}
	if len(p) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.rc.Read(p)
	c.remaining -= n
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }
