package serve

import "math"

// The service's randomness follows internal/check's injector discipline:
// every decision is a stateless check.Roll or check.Mix64 hash of (seed,
// stream, cycle, salt). No hidden PRNG state means a run is exactly
// reproducible from its seed regardless of tick order, worker count, or
// which fault classes are enabled — the property the chaos soak's
// byte-stable-JSON assertion rests on.
const (
	streamArrival = 101 + iota // per-tenant per-cycle arrival gate
	streamKey                  // key choice for an arrival
	streamPhase                // per-tenant burst phase offset
)

// zipf maps a uniform u in [0,1) onto [0, n) with a power-law popularity
// of exponent s via the continuous inverse-CDF approximation: low keys
// are hot, the tail is cold. s = 0 degenerates to uniform. newZipf
// computes the distribution's constants once, so a draw costs one
// math.Pow.
type zipf struct {
	n   int
	s   float64
	top float64 // n^(1-s)
	exp float64 // 1/(1-s)
}

func newZipf(n int, s float64) zipf {
	return zipf{n: n, s: s, top: math.Pow(float64(n), 1-s), exp: 1 / (1 - s)}
}

// key draws the key for u.
func (z zipf) key(u float64) uint64 {
	if z.n <= 1 {
		return 0
	}
	fn := float64(z.n)
	var x float64
	switch {
	case z.s == 0:
		x = u*fn + 1
	case math.Abs(z.s-1) < 1e-9:
		x = math.Pow(fn, u)
	default:
		x = math.Pow((z.top-1)*u+1, z.exp)
	}
	k := uint64(x) - 1
	if k >= uint64(z.n) {
		k = uint64(z.n) - 1
	}
	return k
}
