// Package splitmix is the repo's one seeded-RNG helper: the splitmix64
// generator (as a stateful stream and as its pure finalizer) and the
// 64-bit FNV-1a string hash. Every deterministic fault stream, trace ID
// and parallel task seed derives from these, so a same-seed run draws the
// same values wherever the helper is used.
package splitmix

// Golden is the splitmix64 increment, 2^64/φ.
const Golden = 0x9e3779b97f4a7c15

// Mix is the splitmix64 output for state x: it adds the increment and
// applies the finalizer, as a pure function. Next(&s) == Mix(old s).
func Mix(x uint64) uint64 {
	x += Golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Next advances the stream state and returns its next value.
func Next(state *uint64) uint64 {
	v := Mix(*state)
	*state += Golden
	return v
}

// Float01 draws a uniform float in [0,1) from the stream.
func Float01(state *uint64) float64 {
	return float64(Next(state)>>11) / (1 << 53)
}

// FNV64a is the 64-bit FNV-1a hash of s.
func FNV64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
