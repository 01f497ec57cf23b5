package apps

import "repro/internal/sim"

// MusicService decodes audio in fixed-size chunks on a steady cadence while
// playback is on: moderate, fine-grained background load. Running it at the
// energy-optimal frequency is exactly what the oracle does and load-chasing
// governors fail to do efficiently.
type MusicService struct {
	// ChunkCycles is the decode work per period.
	ChunkCycles int64
	// Period is the decode cadence.
	Period sim.Duration
	// AutoPlay starts playback at service start (for workloads that listen
	// to music throughout, independent of opening the player app).
	AutoPlay bool

	h       Host
	playing bool
	tick    func()      // one pre-bound loop body; rescheduling never allocates
	quiet   sim.EventID // the next tick while it is armed quietly, else 0
}

// NewMusicService returns a decoder service: 12 M cycles every 250 ms
// (≈16 % duty at the lowest OPP, ≈1.5 % at the highest).
func NewMusicService(autoPlay bool) *MusicService {
	return &MusicService{ChunkCycles: 12_000_000, Period: 250 * sim.Millisecond, AutoPlay: autoPlay}
}

// Name implements Service.
func (s *MusicService) Name() string { return "music" }

// Start implements Service: the decoder plays exactly when AutoPlay is on.
func (s *MusicService) Start(h Host) {
	s.h = h
	s.playing = s.AutoPlay
	if s.tick == nil {
		s.tick = func() {
			if s.playing {
				s.h.SpawnWork("music.decode", s.ChunkCycles, nil)
			}
			s.arm()
		}
	}
	s.arm()
}

// arm queues the next tick one period on. A tick reads only playing, so
// while playback is off it would do nothing but re-arm itself: it is armed
// quietly (Host.AfterQuiet), and SetPlaying wakes it before playback
// starts.
func (s *MusicService) arm() {
	if s.playing {
		s.quiet = 0
		s.h.After(s.Period, s.tick)
		return
	}
	s.quiet = s.h.AfterQuiet(s.Period, s.tick)
}

// SetPlaying toggles decoding.
func (s *MusicService) SetPlaying(on bool) {
	if on && s.quiet != 0 {
		s.h.Wake(s.quiet)
		s.quiet = 0
	}
	s.playing = on
}

// Playing reports the playback state.
func (s *MusicService) Playing() bool { return s.playing }

// AccountSyncService models periodic account/cloud sync: an abrupt
// full-throttle burst (CPU parse + network IO) every couple of tens of
// seconds. These bursts are what make load-driven governors jump to maximum
// frequency outside interaction lags — the paper's energy-waste issue (1).
type AccountSyncService struct {
	// Interval between syncs (jittered per repetition).
	Interval sim.Duration
	// BurstCycles is the CPU cost of each sync.
	BurstCycles int64
	// NetDelay is the network round trip before the parse burst.
	NetDelay sim.Duration

	h     Host
	tick  func() // one pre-bound loop body; rescheduling never allocates
	onNet func() // the post-roundtrip parse burst, equally pre-bound
}

// NewAccountSyncService returns a sync service with the given period
// (0 → 25 s). The burst is sized so that at the lowest OPP it occupies the
// core for ~0.4 s — enough to make load-driven governors jump, bounded
// enough that the paper's replay-sync requirement still holds at 0.30 GHz.
func NewAccountSyncService(interval sim.Duration) *AccountSyncService {
	if interval <= 0 {
		interval = 25 * sim.Second
	}
	return &AccountSyncService{Interval: interval, BurstCycles: 120_000_000, NetDelay: 280 * sim.Millisecond}
}

// Name implements Service.
func (s *AccountSyncService) Name() string { return "accountsync" }

// Start implements Service.
func (s *AccountSyncService) Start(h Host) {
	s.h = h
	if s.tick == nil {
		s.onNet = func() { s.h.SpawnWork("sync.parse", s.BurstCycles, nil) }
		s.tick = func() {
			s.h.SpawnIO("sync.net", s.NetDelay, s.onNet)
			s.schedule()
		}
	}
	s.schedule()
}

func (s *AccountSyncService) schedule() {
	jitter := s.h.Rand().Jitter(s.Interval / 6)
	s.h.After(s.Interval+jitter, s.tick)
}

// TelemetryService models light periodic OS housekeeping (location, stats
// upload): small frequent work that keeps the device from being perfectly
// idle between interactions, as on a real phone.
type TelemetryService struct {
	Period sim.Duration
	Cycles int64
	h      Host
	tick   func() // one pre-bound loop body; rescheduling never allocates
}

// NewTelemetryService returns the housekeeping service (5 M cycles every
// 2 s by default).
func NewTelemetryService() *TelemetryService {
	return &TelemetryService{Period: 2 * sim.Second, Cycles: 5_000_000}
}

// Name implements Service.
func (s *TelemetryService) Name() string { return "telemetry" }

// Start implements Service.
func (s *TelemetryService) Start(h Host) {
	s.h = h
	if s.tick == nil {
		s.tick = func() {
			s.h.SpawnWork("telemetry.tick", s.Cycles, nil)
			s.schedule()
		}
	}
	s.schedule()
}

func (s *TelemetryService) schedule() {
	jitter := s.h.Rand().Jitter(s.Period / 10)
	s.h.After(s.Period+jitter, s.tick)
}

// PeriodicWorkService is a generic background load generator: Cycles of CPU
// work every Period (jittered per repetition). It models app-specific
// residents like a game's advertisement framework or a video editor's proxy
// transcoder — the "background task executes while the user is reading text"
// situations of the paper's introduction.
type PeriodicWorkService struct {
	Label  string
	Cycles int64
	Period sim.Duration
	h      Host
	tick   func() // one pre-bound loop body; rescheduling never allocates
}

// NewPeriodicService builds a periodic background work service.
func NewPeriodicService(label string, cycles int64, period sim.Duration) *PeriodicWorkService {
	if period <= 0 {
		period = 4 * sim.Second
	}
	return &PeriodicWorkService{Label: label, Cycles: cycles, Period: period}
}

// Name implements Service.
func (s *PeriodicWorkService) Name() string { return s.Label }

// Start implements Service.
func (s *PeriodicWorkService) Start(h Host) {
	s.h = h
	if s.tick == nil {
		s.tick = func() {
			s.h.SpawnWork(s.Label, s.Cycles, nil)
			s.schedule()
		}
	}
	s.schedule()
}

func (s *PeriodicWorkService) schedule() {
	jitter := s.h.Rand().Jitter(s.Period / 8)
	s.h.After(s.Period+jitter, s.tick)
}
