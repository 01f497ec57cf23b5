package apps

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/netproxy"
	"repro/internal/sim"
)

// notRunState names the fields a fresh-state comparison skips: bindings and
// memos set at construction or Start that no run changes in a way Render
// or a later run can see.
var notRunState = map[string]bool{
	"LogoQuiz.kbd":        true, // keyboard layout and its band memo
	"Messaging.kbd":       true,
	"Facebook.kbd":        true,
	"Gmail.kbd":           true,
	"MusicPlayer.Service": true, // the bound decoder; reset by its own Start
	"MusicService.tick":   true, // the loop body Start binds once
	"MusicService.quiet":  true, // the quiet tick's engine ID; Start re-arms it on the rewound engine
}

// requireFresh fails unless every field of *got, embedded structs included,
// equals the same field of *want, apart from notRunState. An empty slice
// equals a nil one, so an Init that truncates instead of dropping storage
// passes.
func requireFresh(t *testing.T, label string, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	var walk func(g, w reflect.Value)
	walk = func(g, w reflect.Value) {
		for i := 0; i < g.NumField(); i++ {
			f := g.Type().Field(i)
			if f.Anonymous && f.Type.Kind() == reflect.Struct {
				walk(g.Field(i), w.Field(i))
				continue
			}
			if notRunState[g.Type().Name()+"."+f.Name] {
				continue
			}
			gf, wf := readable(g.Field(i)), readable(w.Field(i))
			if gf.Kind() == reflect.Slice && gf.Len() == 0 && wf.Len() == 0 {
				continue
			}
			if !reflect.DeepEqual(gf.Interface(), wf.Interface()) {
				t.Errorf("%s: %s.%s = %v after reset, want %v as in a fresh instance",
					label, g.Type().Name(), f.Name, gf, wf)
			}
		}
	}
	walk(g, w)
}

// readable lets reflection read an unexported field of an addressable
// struct.
func readable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// TestInitRestoresFreshState pins what the device's Seal rests on: Seal
// calls every app's Init, every service's Start and the proxy's Rewind
// before each run, cold or forked. So after whatever a run did, those must
// leave every field as a freshly built instance has it. Each app tour is
// cut after every step, so states in the middle of a load, a save or a game
// session are reset too, not only where the tours end.
func TestInitRestoresFreshState(t *testing.T) {
	nop := func(*fakeHost, App, string, *bool) {}
	for _, at := range appTours {
		for n := 1; n <= len(at.steps); n++ {
			a, h := at.walk(t, n, nop)
			a.Init(h)
			fresh := at.mk()
			fresh.Init(h)
			requireFresh(t, a.Name()+" after "+at.steps[n-1].name, a, fresh)
		}
	}

	for _, autoPlay := range []bool{false, true} {
		h := newFakeHost()
		svc := NewMusicService(autoPlay)
		svc.Start(h)
		svc.SetPlaying(!autoPlay)
		svc.Start(h)
		fresh := NewMusicService(autoPlay)
		fresh.Start(h)
		requireFresh(t, "music service", svc, fresh)
	}

	rec := netproxy.New(netproxy.Record)
	rec.Access("feed", 300*sim.Millisecond)
	rec.Access("feed", 280*sim.Millisecond)
	p := rec.ReplayCopy()
	for _, res := range []string{"feed", "feed", "feed", "mail"} { // the last two miss
		p.Access(res, sim.Second)
	}
	p.Rewind()
	requireFresh(t, "replay proxy", p, rec.ReplayCopy())
}
