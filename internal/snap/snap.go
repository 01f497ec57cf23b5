// Package snap provides the flat state buffer the checkpoint layer
// serialises app and service state into. Every app, the launcher, each
// stateful background service and the network proxy append their fields to
// one shared Buf in a fixed order when a booted device is checkpointed, and
// consume them in the same order on every restore — no reflection and no
// per-field allocation.
//
// The buffer carries two typed streams: integers (which also encode bools,
// floats and durations) and strings.
package snap

import "math"

// Buf is a flat snapshot buffer. The zero value is ready to use. Save with
// the Put methods; call Rewind before reading back; read with the matching
// getters in the exact order the fields were written.
type Buf struct {
	ints []int64
	strs []string

	iInt, iStr int
}

// Rewind moves the read cursors back to the start (call before restoring).
func (b *Buf) Rewind() { b.iInt, b.iStr = 0, 0 }

// PutInt appends one integer.
func (b *Buf) PutInt(v int64) { b.ints = append(b.ints, v) }

// PutBool appends one bool.
func (b *Buf) PutBool(v bool) {
	if v {
		b.ints = append(b.ints, 1)
	} else {
		b.ints = append(b.ints, 0)
	}
}

// PutFloat appends one float64 (bit-exact).
func (b *Buf) PutFloat(v float64) { b.ints = append(b.ints, int64(math.Float64bits(v))) }

// PutStr appends one string.
func (b *Buf) PutStr(s string) { b.strs = append(b.strs, s) }

// Int reads the next integer.
func (b *Buf) Int() int64 {
	v := b.ints[b.iInt]
	b.iInt++
	return v
}

// Bool reads the next bool.
func (b *Buf) Bool() bool { return b.Int() != 0 }

// Float reads the next float64.
func (b *Buf) Float() float64 { return math.Float64frombits(uint64(b.Int())) }

// Str reads the next string.
func (b *Buf) Str() string {
	s := b.strs[b.iStr]
	b.iStr++
	return s
}

// FaultTruncate empties the buffer's typed streams while leaving the read
// cursors untouched — the fault-injection form of a torn or bit-rotted
// snapshot. The next typed read deterministically panics (index out of
// range), which is the failure mode the replay pool's panic recovery and
// session quarantine must contain. Fault-injection suites only.
func (b *Buf) FaultTruncate() {
	b.ints = b.ints[:0]
	b.strs = b.strs[:0]
}
