package main

import "math"

// All inputs derive from the --seed through SplitMix64, so the same
// seed gives the same schedule, masks and payloads, and no decision
// reads the clock.

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive names an independent stream of the run seed.
func derive(seed uint64, parts ...uint64) uint64 {
	h := mix64(seed)
	for _, p := range parts {
		h = mix64(h ^ p)
	}
	return h
}

// rng is a SplitMix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle puts vals in a seeded random order (Fisher-Yates) and
// returns it.
func (r *rng) shuffle(vals []int) []int {
	for i := len(vals) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		vals[i], vals[j] = vals[j], vals[i]
	}
	return vals
}

// perm returns 0..n-1 in a seeded random order.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return r.shuffle(p)
}

// exp returns an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }

// fillMask sets each element independently true with probability
// density; element i depends only on (seed, i).
func fillMask(dst []bool, seed uint64, density float64) {
	limit := uint64(density * (1 << 53))
	s := mix64(seed)
	for i := range dst {
		dst[i] = mix64(s^uint64(i))>>11 < limit
	}
}

// fillInts fills dst with seeded values.
func fillInts(dst []int, seed uint64) {
	r := rng{s: seed}
	for i := range dst {
		dst[i] = int(r.next() >> 1)
	}
}

// digest is an order-sensitive 64-bit hash over whole words: FNV-1a's
// step followed by an xorshift so high bits feed back into low ones.
// Each step is a bijection of the state, so two inputs that differ in
// exactly one word never collide.
func digest(v []int) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h = (h ^ uint64(x)) * 1099511628211
		h ^= h >> 29
	}
	return h ^ uint64(len(v))
}
