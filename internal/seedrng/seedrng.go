// Package seedrng is a drop-in math/rand Source64 that makes seeding
// cheap. The harness pins determinism by reseeding one context per
// iteration (cuda.Context.Reset), and a cold request brings hundreds of
// seeds no process has seen before, so every Seed must be cheap on its
// own, not only on a repeat.
//
// math/rand's Seed runs the Park–Miller generator x' = 48271·x mod
// 2³¹−1 from the seed through 20 warm-up steps and then three steps per
// state word, XORing each word with a private "cooked" table. Word i
// therefore depends only on generator values 21+3i, 22+3i and 23+3i,
// which are seed·48271^k mod 2³¹−1 for those k. Seed computes each word
// directly from a table of those multipliers with a Mersenne reduction,
// so the words are independent and the 1,821 modular products carry no
// chain of dependent steps.
//
// The cooked table is not copied into this package. The generator's
// first lap of 607 outputs is invertible back to the seeded state, so
// the first Seed in a process recovers the table from math/rand's own
// first lap for one seed and self-checks it against math/rand on
// another. Both tables are built once, on first use rather than at
// package init so that a process that never seeds pays nothing, and are
// only read afterwards; the package keeps no mutable state.
package seedrng

import (
	"fmt"
	"math/rand"
	"sync"
)

// ringLen and ringTap are math/rand's additive-generator ring length
// and tap distance (its private rngLen and rngTap). The generator is
// frozen by the Go 1 compatibility promise — rand.NewSource(seed) must
// produce the same stream forever — and the self-check fails loudly if
// it ever changes.
const (
	ringLen = 607
	ringTap = 273
)

// feedStart and tapStart are the ring positions math/rand's Seed leaves
// its feed and tap pointers at. Both pointers step backwards one slot
// per draw.
const (
	feedStart = ringLen - ringTap
	tapStart  = 0
)

// Park–Miller constants of math/rand's seed expansion (seedrand):
// the modulus 2³¹−1, the multiplier, the warm-up step count, and the
// replacement for a seed that reduces to zero.
const (
	pmMod    = 1<<31 - 1
	pmMul    = 48271
	pmWarmup = 20
	zeroSeed = 89482311
)

// tables holds what Seed needs besides the seed.
type tables struct {
	// mult[3i+j] is 48271^(21+3i+j) mod 2³¹−1, the multiplier that takes
	// the seed to the generator value feeding part j of state word i.
	mult [3 * ringLen]uint64
	// cooked is math/rand's rngCooked table, recovered from its output.
	cooked [ringLen]int64
}

// loadTables builds the tables on first use. A failed self-check panics:
// only a changed math/rand or a bug here can cause it.
var loadTables = sync.OnceValue(func() *tables {
	t, err := newTables()
	if err != nil {
		panic(err)
	}
	return t
})

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹. The product fits in 62
// bits; folding the high bits onto the low ones (2³¹ ≡ 1) leaves a value
// below 2·(2³¹−1), so one conditional subtraction finishes the
// reduction.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&pmMod + p>>31
	if r >= pmMod {
		r -= pmMod
	}
	return r
}

// seedState fills vec with math/rand's seeded state for seed: word i is
// (x₁ << 40) ^ (x₂ << 20) ^ x₃ ^ cooked[i] for the three generator values
// the word consumes. It reduces the seed exactly as math/rand does.
func (t *tables) seedState(vec *[ringLen]int64, seed int64) {
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range vec {
		m := t.mult[3*i : 3*i+3 : 3*i+3]
		vec[i] = int64(mulMod(x, m[0])<<40^mulMod(x, m[1])<<20^mulMod(x, m[2])) ^ t.cooked[i]
	}
}

// newTables computes the multipliers and inverts math/rand's first lap
// for the cooked table. Draw k (1-based) adds the tap slot 607−k to the
// feed slot 334−k (mod 607), stores the sum in the feed slot and returns
// it, so the feed slot's seeded value is the output minus the tap slot's
// current value. For k > 273 the tap slot was already overwritten by
// draw k−273; for k ≤ 273 it still holds its seeded value, which draw
// k+334 recovers first. XORing the recovered state with the Park–Miller
// words of the same seed (seedState while the cooked table is still
// zero) leaves the table. A source built on the result must then match
// math/rand for two laps at a second seed.
func newTables() (*tables, error) {
	const probe, check = 1, -7919
	t := &tables{}
	x := uint64(1)
	for k := 1; k <= pmWarmup+3*ringLen; k++ {
		x = mulMod(x, pmMul)
		if k > pmWarmup {
			t.mult[k-pmWarmup-1] = x
		}
	}

	src := rand.NewSource(probe).(rand.Source64)
	var out [ringLen + 1]int64 // out[k] is draw k
	for k := 1; k <= ringLen; k++ {
		out[k] = int64(src.Uint64())
	}
	slot := func(k int) int { return ((feedStart-k)%ringLen + ringLen) % ringLen }
	var seeded, pm [ringLen]int64
	for k := ringTap + 1; k <= ringLen; k++ {
		seeded[slot(k)] = out[k] - out[k-ringTap]
	}
	for k := 1; k <= ringTap; k++ {
		seeded[slot(k)] = out[k] - seeded[ringLen-k]
	}
	t.seedState(&pm, probe)
	for i := range t.cooked {
		t.cooked[i] = seeded[i] ^ pm[i]
	}

	s := Source{t: t}
	s.reseed(check)
	ref := rand.NewSource(check).(rand.Source64)
	for k := 0; k < 2*ringLen; k++ {
		if g, w := s.Uint64(), ref.Uint64(); g != w {
			return nil, fmt.Errorf("seedrng: recovered table disagrees with math/rand at draw %d (seed %d)", k, check)
		}
	}
	return t, nil
}

// Source is a rand.Source64 producing exactly rand.NewSource(seed)'s
// stream once seeded. Like math/rand's own source it is not safe for
// concurrent use.
type Source struct {
	t    *tables // nil until the first Seed
	vec  [ringLen]int64
	tap  int
	feed int
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the source to math/rand's seeded state for seed, computed
// word by word from the multiplier and cooked tables.
func (s *Source) Seed(seed int64) {
	if s.t == nil {
		s.t = loadTables()
	}
	s.reseed(seed)
}

// reseed resets the source to seed's state under its tables.
func (s *Source) reseed(seed int64) {
	s.t.seedState(&s.vec, seed)
	s.tap = tapStart
	s.feed = feedStart
}

// Uint64 returns the next value of the stream: math/rand's additive
// lagged-Fibonacci recurrence.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += ringLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += ringLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value masked to 63 bits, as math/rand does.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
