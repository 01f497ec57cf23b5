package sim

// Rand is a small, fast, deterministic pseudo-random generator
// (splitmix64). Every source of simulated noise (IO jitter, background
// service phases, input injection error) draws from a Rand seeded from the
// run configuration, so repetitions are reproducible while still differing
// from one another, mirroring the statistical noise of the paper's five
// repetitions per configuration.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Distinct seeds give
// independent-looking streams.
func NewRand(seed uint64) *Rand {
	// Avoid the all-zero state producing a weak leading sequence by mixing
	// the seed once through the output function.
	r := &Rand{state: seed}
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// The outer conversion rounds the quotient, a product by 2^-53 once
	// compiled, so no caller's add can fuse with it (see tools/fmacheck).
	return float64(float64(r.Uint64()>>11) / float64(1<<53))
}

// Jitter returns a duration drawn uniformly from [-spread, +spread].
func (r *Rand) Jitter(spread Duration) Duration {
	if spread <= 0 {
		return 0
	}
	return Duration(r.Int63n(int64(2*spread)+1)) - spread
}

// JitterFrac scales d by a uniform factor in [1-frac, 1+frac]. frac is
// clamped to [0, 1].
func (r *Rand) JitterFrac(d Duration, frac float64) Duration {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// The float64 conversions round each product, so no architecture fuses
	// one into an add (see tools/fmacheck): the jitter is the same bits on
	// every machine.
	scale := 1 + float64(frac*(float64(2*r.Float64())-1))
	return Duration(float64(d) * scale)
}

// Fork derives an independent generator whose stream is a deterministic
// function of the parent state and the label. The parent's state is not
// advanced, so adding new Fork call sites does not perturb existing streams.
func (r *Rand) Fork(label string) *Rand {
	h := r.state
	for _, b := range []byte(label) {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return NewRand(h)
}
