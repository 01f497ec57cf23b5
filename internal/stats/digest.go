package stats

import (
	"math"
	"sort"
)

// Digest is a mergeable quantile sketch in the style of Dunning's merging
// t-digest: a population sweep's 10^6 per-run metrics compress into a few
// hundred weighted centroids whose sizes follow the arcsine scale function,
// so the tails (p95/p99) stay sharp while the bulk of the distribution is
// summarised coarsely. It is the streaming replacement for a []float64 of
// population size — memory is O(compression), independent of Count.
//
// Units: a digest is unit-agnostic; feed it seconds, joules or °C, read the
// same unit back from Quantile.
//
// Determinism: every operation is a pure function of the digest's prior
// state and its argument — the same values added in the same order, and the
// same digests merged in the same order, reproduce the sketch bit for bit.
// Merging in a different order may produce a different (equally valid)
// sketch; the accuracy bound below holds for every merge order, which is the
// property the population sweep's per-unit-then-aggregate pipeline relies
// on.
//
// Accuracy: with compression δ (NewDigest's parameter), the rank of the
// value Quantile(q) returns differs from q·n by at most
//
//	ε(q)·n, where ε(q) = max(2/n, 4π·√(q(1-q))/δ)
//
// — the arcsine scale bounds every centroid's weight by ~2π·n·√(q(1-q))/δ
// at its own rank, interpolation over centroid midpoints at most doubles
// it, and no estimate can beat single-sample resolution. Merge is
// associative within the same bound: merging per-worker digests in any
// grouping agrees with a whole-sample digest to ε. QuantileErrorBound
// exposes ε(q) so tests and reports can state it instead of hard-coding it.
type Digest struct {
	compression float64
	// centroids is the compressed sketch, sorted by mean; buf holds
	// not-yet-merged points and foreign centroids.
	centroids []centroid
	buf       []centroid
	n         float64 // total weight across centroids and buf
	min, max  float64
}

// centroid is one weighted cluster of nearby values.
type centroid struct {
	mean   float64
	weight float64
}

// DefaultCompression is the δ used when NewDigest is given <= 0: ~1.6%
// worst-case rank error at the median, ~0.5% at p99, in at most ~2·δ
// centroids.
const DefaultCompression = 128

// NewDigest returns an empty digest with the given compression δ
// (<= 0 → DefaultCompression). Larger δ means more centroids and tighter
// quantiles; memory is O(δ).
func NewDigest(compression float64) *Digest {
	if compression <= 0 {
		compression = DefaultCompression
	}
	return &Digest{
		compression: compression,
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add folds one value into the digest.
func (d *Digest) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	d.push(centroid{mean: x, weight: 1})
}

// Merge folds another digest into this one. The other digest is not
// modified; merging a nil or empty digest is a no-op. Both digests keep
// their own compression; the receiver's governs the merged sketch.
func (d *Digest) Merge(o *Digest) {
	if o == nil || d == o || o.n == 0 {
		return
	}
	// Compress the source first so a half-buffered sketch merges the same
	// way as a settled one, then fold its centroids through the buffer.
	o.compress()
	for _, c := range o.centroids {
		d.push(c)
	}
	if o.min < d.min {
		d.min = o.min
	}
	if o.max > d.max {
		d.max = o.max
	}
}

// push buffers one centroid and compresses when the buffer fills.
func (d *Digest) push(c centroid) {
	if c.mean < d.min {
		d.min = c.mean
	}
	if c.mean > d.max {
		d.max = c.mean
	}
	d.n += c.weight
	d.buf = append(d.buf, c)
	if len(d.buf) >= int(4*d.compression) {
		d.compress()
	}
}

// k is the t-digest arcsine scale function: centroids are allowed to span
// at most one unit of k, which squeezes them towards single samples at the
// extreme ranks and lets them grow to ~2π·n·√(q(1-q))/δ in the middle.
func (d *Digest) k(q float64) float64 {
	if q <= 0 {
		return -d.compression / 4
	}
	if q >= 1 {
		return d.compression / 4
	}
	return d.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// compress merges the buffer into the centroid list: one sorted sweep,
// greedily combining adjacent centroids while their combined span stays
// within one unit of the scale function.
func (d *Digest) compress() {
	if len(d.buf) == 0 {
		return
	}
	all := append(d.centroids, d.buf...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].mean < all[j].mean })
	out := all[:0]
	acc := all[0]
	var cum float64 // weight fully emitted before acc
	limit := d.k(cum/d.n) + 1
	for _, c := range all[1:] {
		if d.k((cum+acc.weight+c.weight)/d.n) <= limit {
			// float64(...) rounds the product so no architecture fuses it
			// into the add (see tools/fmacheck); so do the ones in Quantile.
			acc.mean += float64((c.mean - acc.mean) * (c.weight / (acc.weight + c.weight)))
			acc.weight += c.weight
			continue
		}
		out = append(out, acc)
		cum += acc.weight
		limit = d.k(cum/d.n) + 1
		acc = c
	}
	d.centroids = append(out, acc)
	d.buf = d.buf[:0]
}

// Count returns the number of values added (including merged ones).
func (d *Digest) Count() int64 { return int64(d.n + 0.5) }

// Min returns the smallest value seen (NaN when empty).
func (d *Digest) Min() float64 {
	if d.n == 0 {
		return math.NaN()
	}
	return d.min
}

// Max returns the largest value seen (NaN when empty).
func (d *Digest) Max() float64 {
	if d.n == 0 {
		return math.NaN()
	}
	return d.max
}

// Centroids returns the current number of centroids after compression —
// the sketch's memory footprint in O(1)-sized units, bounded by ~2·δ
// regardless of Count. Exposed so the flat-memory property is testable.
func (d *Digest) Centroids() int {
	d.compress()
	return len(d.centroids)
}

// Quantile returns the estimated q-quantile (0..1, clamped) with linear
// interpolation between centroid midpoints, anchored at the exact Min and
// Max. Empty digests return NaN. See the type comment for the error bound.
func (d *Digest) Quantile(q float64) float64 {
	if d.n == 0 {
		return math.NaN()
	}
	d.compress()
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	target := float64(q * d.n)
	cs := d.centroids
	// Ranks interpolate between centroid midpoints; the first half-centroid
	// anchors to min, the last to max.
	var cum float64
	prevMid, prevMean := 0.0, d.min
	for _, c := range cs {
		mid := cum + float64(c.weight/2)
		if target < mid {
			if mid == prevMid {
				return c.mean
			}
			frac := (target - prevMid) / (mid - prevMid)
			return prevMean + float64(frac*(c.mean-prevMean))
		}
		prevMid, prevMean = mid, c.mean
		cum += c.weight
	}
	if d.n == prevMid {
		return d.max
	}
	frac := (target - prevMid) / (d.n - prevMid)
	return prevMean + float64(frac*(d.max-prevMean))
}

// QuantileErrorBound returns ε(q), the documented worst-case rank error of
// Quantile(q) as a fraction of Count: the estimate's true rank lies within
// [(q-ε)·n, (q+ε)·n]. It is the bound the population report's percentile
// tables are accurate to, and what the property tests assert against.
func (d *Digest) QuantileErrorBound(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	eps := 4 * math.Pi * math.Sqrt(q*(1-q)) / d.compression
	if d.n > 0 {
		if floor := 2 / d.n; eps < floor {
			eps = floor
		}
	}
	return eps
}
