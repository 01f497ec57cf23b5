// Package annotate implements the paper's annotation database (§II-A,
// Fig. 4 Part A): for every interaction lag of a workload, an image of the
// expected ending ("how the mobile screen looks when the user feels that the
// system has serviced his input"), plus the extra matcher information of
// §II-E — masks for non-deterministic regions (the Fig. 8 clock), the
// occurrence count for endings that look like the beginning (the send-MMS
// example), and the irritation threshold chosen from the HCI model.
//
// Annotation happens once per workload. The role of the human who "only
// needs to pick the right [suggestion]" is played by the device's
// ground-truth interaction log, which the matcher itself never sees.
package annotate

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/evdev"
	"repro/internal/screen"
	"repro/internal/sim"
	"repro/internal/suggest"
	"repro/internal/video"
)

// Entry is the annotation for one interaction lag.
type Entry struct {
	Index     int           `json:"index"`
	Label     string        `json:"label"`
	Spurious  bool          `json:"spurious,omitempty"`
	Image     *video.Frame  `json:"-"`
	MaskRects []screen.Rect `json:"mask_rects,omitempty"`
	Tolerance uint8         `json:"tolerance"`
	MaxDiff   int           `json:"max_diff_pixels"`
	// Occurrence is which similarity segment after the input counts as the
	// ending (≥2 when "the suggested lag ending looks like the beginning").
	Occurrence int           `json:"occurrence"`
	Class      core.HCIClass `json:"class"`
	Threshold  sim.Duration  `json:"threshold"`

	mask *video.Mask
}

// Mask returns the entry's comparison mask (clock plus volatile regions),
// building it lazily.
func (e *Entry) Mask() *video.Mask {
	if e.mask == nil {
		rects := append([]screen.Rect{screen.ClockRect}, e.MaskRects...)
		e.mask = video.NewMask(rects...)
	}
	return e.mask
}

// Similar reports whether frame f shows this entry's expected ending.
func (e *Entry) Similar(f *video.Frame) bool {
	return video.Similar(e.Image, f, e.Mask(), e.Tolerance, e.MaxDiff)
}

// SimilarWith is Similar with a caller-held comparer that accelerates a
// stream of comparisons against this entry's image (the matcher's scan).
func (e *Entry) SimilarWith(f *video.Frame, c *video.Comparer) bool {
	return c.Similar(e.Image, f, e.Mask(), e.Tolerance, e.MaxDiff)
}

// DB is the annotation database of one workload.
type DB struct {
	Workload string  `json:"workload"`
	FPS      int     `json:"fps"`
	Entries  []Entry `json:"entries"`
}

// Thresholds extracts the per-lag irritation thresholds stored at
// annotation time (the HCI-model choice of §II-F).
func (db *DB) Thresholds() core.Thresholds {
	t := core.Thresholds{ByIndex: make(map[int]sim.Duration), Default: core.SimpleFrequent.Threshold()}
	for _, e := range db.Entries {
		if !e.Spurious {
			t.ByIndex[e.Index] = e.Threshold
		}
	}
	return t
}

// BuildOptions tunes annotation.
type BuildOptions struct {
	// Suggester config defaults applied to every lag.
	Tolerance uint8
	MaxDiff   int
	MinStill  int
}

// Build constructs the annotation database from one annotation run: its
// video, the recorded gestures (lag beginnings), and the device ground truth
// standing in for the human annotator. Fails if the suggester offers no
// frame near a lag's true ending — which is exactly when a human would
// reconfigure the suggester, so tests treat it as a hard error.
func Build(workloadName string, v *video.Video, gestures []evdev.Gesture, truths []device.GroundTruth, opts BuildOptions) (*DB, error) {
	if len(gestures) != len(truths) {
		return nil, fmt.Errorf("annotate: %d gestures but %d ground truths", len(gestures), len(truths))
	}
	db := &DB{Workload: workloadName, FPS: v.FPSRate()}
	for k, g := range gestures {
		gt := truths[k]
		entry := Entry{
			Index:     k,
			Label:     gt.Label,
			Tolerance: opts.Tolerance,
			MaxDiff:   opts.MaxDiff,
			Class:     gt.Class,
			Threshold: gt.Class.Threshold(),
		}
		if gt.Spurious {
			entry.Spurious = true
			db.Entries = append(db.Entries, entry)
			continue
		}
		entry.MaskRects = gt.MaskRects

		startIdx := v.IndexAt(g.Start)
		endSearch := v.Len() - 1
		if k+1 < len(gestures) {
			endSearch = v.IndexAt(gestures[k+1].Start)
		}
		cfg := suggest.Config{
			Tolerance:     opts.Tolerance,
			MaxDiffPixels: opts.MaxDiff,
			MinStill:      opts.MinStill,
			Mask:          entry.Mask(),
		}
		suggestions := suggest.Suggest(v, startIdx, endSearch, cfg)
		if len(suggestions) == 0 {
			return nil, fmt.Errorf("annotate: lag %d (%s): no suggestions in frames (%d,%d]", k, gt.Label, startIdx, endSearch)
		}
		// The "human" picks the suggestion that shows the state at the
		// ground-truth completion instant: the first captured frame at or
		// after CompleteTime.
		trueEnd := frameAtOrAfter(v, gt.CompleteTime)
		pick := suggestions[0]
		bestDist := dist(pick, trueEnd)
		for _, s := range suggestions[1:] {
			if d := dist(s, trueEnd); d < bestDist {
				pick, bestDist = s, d
			}
		}
		if bestDist > 3 {
			return nil, fmt.Errorf("annotate: lag %d (%s): nearest suggestion %d is %d frames from true ending %d",
				k, gt.Label, pick, bestDist, trueEnd)
		}
		entry.Image = v.FrameAt(pick)
		entry.Occurrence = countOccurrences(v, startIdx, pick, &entry)
		db.Entries = append(db.Entries, entry)
	}
	return db, nil
}

// frameAtOrAfter returns the first frame index whose capture time is >= t.
func frameAtOrAfter(v *video.Video, t sim.Time) int {
	i := v.IndexAt(t)
	if v.TimeOf(i) < t {
		i++
	}
	if max := v.Len() - 1; i > max {
		i = max
	}
	return i
}

func dist(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// countOccurrences counts similarity segments of the entry image in frames
// (start, pick]: maximal groups of consecutive frames similar to the image.
// The matcher will skip Occurrence-1 segments — the paper's "look for the
// second occurrence of the required image".
func countOccurrences(v *video.Video, start, pick int, e *Entry) int {
	runs := v.Runs()
	occ := 0
	inSegment := false
	var cmp video.Comparer
	for k := v.RunIndexOf(start + 1); k < len(runs); k++ {
		r := runs[k]
		if r.Start > pick {
			break
		}
		sim := e.SimilarWith(r.Frame, &cmp)
		if sim && !inSegment {
			occ++
		}
		inSegment = sim
	}
	if occ == 0 {
		occ = 1
	}
	return occ
}

// jsonEntry mirrors Entry with an encoded image for serialisation.
type jsonEntry struct {
	Entry
	ImageB64 string `json:"image,omitempty"`
}

type jsonDB struct {
	Workload string      `json:"workload"`
	FPS      int         `json:"fps"`
	Entries  []jsonEntry `json:"entries"`
}

// Save writes the database as JSON, images base64-encoded.
func (db *DB) Save(w io.Writer) error {
	out := jsonDB{Workload: db.Workload, FPS: db.FPS}
	for _, e := range db.Entries {
		je := jsonEntry{Entry: e}
		if e.Image != nil {
			je.ImageB64 = base64.StdEncoding.EncodeToString(e.Image.Pix())
		}
		out.Entries = append(out.Entries, je)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reads a database written by Save.
func Load(r io.Reader) (*DB, error) {
	var in jsonDB
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("annotate: decode: %w", err)
	}
	db := &DB{Workload: in.Workload, FPS: in.FPS}
	for _, je := range in.Entries {
		e := je.Entry
		e.mask = nil
		if je.ImageB64 != "" {
			pix, err := base64.StdEncoding.DecodeString(je.ImageB64)
			if err != nil {
				return nil, fmt.Errorf("annotate: entry %d image: %w", e.Index, err)
			}
			if want := screen.FBW * screen.FBH; len(pix) != want {
				return nil, fmt.Errorf("annotate: entry %d image: %d bytes, want %d", e.Index, len(pix), want)
			}
			e.Image = video.NewFrame(pix)
		}
		db.Entries = append(db.Entries, e)
	}
	return db, nil
}
