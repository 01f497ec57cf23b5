package serve

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Journal is the server's durable job log: one append-only file per job
// under a directory, spooling the job spec, every result record as it is
// appended, and the terminal state. Each line is CRC-framed
// ("%08x <json>\n", CRC32-Castagnoli over the JSON payload), so recovery can
// tell a torn or bit-rotted tail from good data and truncate the file at the
// last record that made it to disk intact.
//
// On restart, Recover replays the directory: jobs with a terminal state line
// (or a terminal record as their last line — the state line itself can be
// the one the crash tore off) come back finished and stay listable and
// streamable; jobs cut off mid-sweep come back queued with their durable
// records pre-loaded, and the server re-executes them, appending only the
// records that never reached the disk.
type Journal struct {
	dir string
	// frozen, when set, turns every write into a no-op — how the crash
	// tests simulate the instant a process dies: whatever is on disk stays,
	// nothing else arrives.
	frozen atomic.Bool
	// testHookWrite, when set (tests only), may rewrite a framed line
	// before it hits the disk — the deterministic way to tear a journal
	// write mid-record.
	testHookWrite func(line []byte) []byte
}

// castagnoli is the CRC-32C table used to frame journal lines.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpenJournal opens (creating if needed) a journal directory.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the journal directory.
func (jn *Journal) Dir() string { return jn.dir }

func (jn *Journal) path(id string) string {
	return filepath.Join(jn.dir, id+".journal")
}

// journalMeta is the first line of every job file: identity plus the spec,
// everything needed to re-queue the job after a crash.
type journalMeta struct {
	Type      string  `json:"type"` // "job"
	ID        string  `json:"id"`
	Seq       int     `json:"seq"`
	Spec      JobSpec `json:"spec"`
	CreatedMS int64   `json:"created_ms"`
}

// journalState is the last line of a cleanly-finished job file.
type journalState struct {
	Type       string `json:"type"` // "state"
	State      string `json:"state"`
	Error      string `json:"error,omitempty"`
	FinishedMS int64  `json:"finished_ms"`
}

// jobFile is the open append handle for one job's journal. Writes are
// serialised by its own mutex and fail soft: after the first write error the
// file is abandoned (writing past a torn record would bury later good
// records behind an unparseable line) and the job keeps running in memory.
type jobFile struct {
	jn  *Journal
	mu  sync.Mutex
	f   *os.File
	err error
}

// Create opens a fresh job file and spools the meta line.
func (jn *Journal) Create(meta journalMeta) (*jobFile, error) {
	meta.Type = "job"
	f, err := os.OpenFile(jn.path(meta.ID), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	jf := &jobFile{jn: jn, f: f}
	raw, _ := json.Marshal(meta)
	if err := jf.Append(raw); err != nil {
		f.Close()
		os.Remove(jn.path(meta.ID))
		return nil, err
	}
	return jf, nil
}

// Reopen opens an existing (recovered) job file for further appends.
func (jn *Journal) Reopen(id string) (*jobFile, error) {
	f, err := os.OpenFile(jn.path(id), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &jobFile{jn: jn, f: f}, nil
}

// Remove deletes a job's file — retention eviction, or rollback of a
// submission the queue refused.
func (jn *Journal) Remove(id string) {
	os.Remove(jn.path(id))
}

// frame wraps a JSON payload in the journal's CRC line format.
func frame(payload []byte) []byte {
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, castagnoli))
	line = append(line, payload...)
	return append(line, '\n')
}

// Append spools JSON payloads as framed lines in one write and one sync.
// No-op while the journal is frozen or after a previous write error.
func (jf *jobFile) Append(payloads ...json.RawMessage) error {
	if jf == nil || len(payloads) == 0 || jf.jn.frozen.Load() {
		return nil
	}
	jf.mu.Lock()
	defer jf.mu.Unlock()
	if jf.err != nil {
		return jf.err
	}
	var buf []byte
	for _, p := range payloads {
		line := frame(p)
		if jf.jn.testHookWrite != nil {
			line = jf.jn.testHookWrite(line)
		}
		buf = append(buf, line...)
	}
	if _, err := jf.f.Write(buf); err != nil {
		jf.err = err
		return err
	}
	// Sync per append: a record a client saw on the stream must survive the
	// process. Sweep replays dwarf the fsync, so this is cheap where it
	// matters and off (journal disabled) where it would not be.
	if err := jf.f.Sync(); err != nil {
		jf.err = err
		return err
	}
	return nil
}

// Close closes the file handle. Idempotent enough for the one writer.
func (jf *jobFile) Close() {
	if jf == nil {
		return
	}
	jf.mu.Lock()
	defer jf.mu.Unlock()
	if jf.f != nil {
		jf.f.Close()
		jf.f = nil
		if jf.err == nil {
			jf.err = os.ErrClosed
		}
	}
}

// RecoveredJob is one job replayed out of the journal directory.
type RecoveredJob struct {
	Meta journalMeta
	// Records holds the raw ResultRecord payloads that survived, in append
	// order (terminal record included when it made it to disk).
	Records []json.RawMessage
	// State is the terminal state line, nil when the job was interrupted.
	// recoverFile infers a terminal state from a surviving terminal record
	// when only the state line itself was lost.
	State *journalState
	// Truncated reports that a torn or corrupted tail was cut off the file.
	Truncated bool
}

// Interrupted reports whether the job needs re-execution.
func (rj *RecoveredJob) Interrupted() bool { return rj.State == nil }

// Recover replays every job file in the directory, oldest submission first.
// Files whose tail was torn mid-write are truncated in place back to the
// last intact record; files with no intact meta line are skipped (left on
// disk for inspection, never destroyed).
func (jn *Journal) Recover() ([]*RecoveredJob, error) {
	entries, err := os.ReadDir(jn.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []*RecoveredJob
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".journal") {
			continue
		}
		rj, err := jn.recoverFile(filepath.Join(jn.dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if rj != nil {
			out = append(out, rj)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Meta.Seq < out[k].Meta.Seq })
	return out, nil
}

// parseLine validates one framed line and returns its JSON payload, or false
// for a torn, bit-flipped or malformed line.
func parseLine(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return nil, false
	}
	payload := line[9:]
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, false
	}
	return payload, true
}

// recoverFile replays one job file. It returns nil (no error) for files with
// no intact meta line.
func (jn *Journal) recoverFile(path string) (*RecoveredJob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()

	rj := &RecoveredJob{}
	valid := int64(0) // bytes of the file known good; everything after is cut
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		payload, ok := parseLine(line)
		if !ok {
			break
		}
		var kind struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(payload, &kind) != nil {
			break
		}
		if first {
			if kind.Type != "job" || json.Unmarshal(payload, &rj.Meta) != nil || rj.Meta.ID == "" {
				return nil, nil // not a job file we understand; leave it be
			}
			first = false
		} else if kind.Type == "state" {
			var st journalState
			if json.Unmarshal(payload, &st) != nil || !Terminal(st.State) {
				break
			}
			rj.State = &st
			valid += int64(len(line)) + 1
			break // state is the last line by construction
		} else {
			rj.Records = append(rj.Records, append(json.RawMessage(nil), payload...))
		}
		valid += int64(len(line)) + 1
	}
	if first {
		return nil, nil // empty or corrupt from the first line on
	}

	if info, err := os.Stat(path); err == nil && info.Size() > valid {
		rj.Truncated = true
		if err := os.Truncate(path, valid); err != nil {
			return nil, fmt.Errorf("journal: truncate %s: %w", path, err)
		}
	}

	// The crash may have torn off exactly the state line: a surviving
	// terminal record still proves the job finished, so recover it terminal
	// instead of re-running a completed sweep.
	if rj.State == nil && len(rj.Records) > 0 {
		var last ResultRecord
		if json.Unmarshal(rj.Records[len(rj.Records)-1], &last) == nil {
			switch last.Type {
			case "summary":
				rj.State = &journalState{Type: "state", State: StateDone}
			case "error":
				rj.State = &journalState{Type: "state", State: StateFailed, Error: last.Error}
			}
		}
	}
	return rj, nil
}
