package seedrng

import (
	"math/rand"
	"testing"
)

// TestStreamMatchesMathRand pins the whole point of the package: for
// many seeds, the Source reproduces rand.NewSource's stream word for
// word, across the end of the first lap of the ring (draw 607 is the
// last one that reads a seeded word as its feed).
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 1 << 40, -(1 << 40), 7919, 1000003}
	for s := int64(2); s < 60; s += 7 {
		seeds = append(seeds, s*s*1_000_003+s)
	}
	const draws = 2*ringLen + 13
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for i := 0; i < draws; i++ {
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// TestReseedMatchesFreshSource: Seed on a used source (the Context.Reset
// path) must restore the exact fresh stream, for repeated and
// never-before-seen seeds, and regardless of how far the previous seed's
// stream was consumed.
func TestReseedMatchesFreshSource(t *testing.T) {
	s := New(1)
	for _, drain := range []int{0, 1, ringLen - 1, ringLen, ringLen + 1, 3*ringLen + 5} {
		for _, seed := range []int64{1, 2, 999999937, -5} {
			for i := 0; i < drain; i++ {
				s.Uint64()
			}
			s.Seed(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < ringLen+9; i++ {
				if g, w := s.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d after draining %d: draw %d got %#x, want %#x",
						seed, drain, i, g, w)
				}
			}
		}
	}
}

// TestInt63MatchesMathRand covers the masked path rand.Rand actually
// calls for most derived draws (Float64, Intn, ...).
func TestInt63MatchesMathRand(t *testing.T) {
	ref := rand.NewSource(12345)
	got := New(12345)
	for i := 0; i < ringLen+50; i++ {
		if g, w := got.Int63(), ref.Int63(); g != w {
			t.Fatalf("draw %d: got %d, want %d", i, g, w)
		}
	}
}

// TestRandRandDerivedStreams: wrapped in rand.New, every derived
// distribution the simulator uses (Float64, the jitter path's quantity)
// matches a rand.Rand over math/rand's own source, including after a
// mid-stream Rand.Seed — the exact Context.Reset usage.
func TestRandRandDerivedStreams(t *testing.T) {
	got := rand.New(New(777))
	want := rand.New(rand.NewSource(777))
	for i := 0; i < 1500; i++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("Float64 draw %d: got %v, want %v", i, g, w)
		}
	}
	got.Seed(778)
	want.Seed(778)
	for i := 0; i < 1500; i++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("post-reseed Float64 draw %d: got %v, want %v", i, g, w)
		}
		if g, w := got.Intn(1<<20), want.Intn(1<<20); g != w {
			t.Fatalf("post-reseed Intn draw %d: got %d, want %d", i, g, w)
		}
	}
}

// FuzzSourceMatchesMathRand checks the direct expansion against
// math/rand for any seed: the -seed flag and a spec's seed field are
// untrusted input, so every int64 (negative, zero, multiples of 2³¹−1,
// the extremes) must reproduce rand.NewSource's stream, both from New
// and from a reseed of a used source. The committed corpus under
// testdata/fuzz holds those edge seeds.
func FuzzSourceMatchesMathRand(f *testing.F) {
	used := New(5)
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		ref := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		used.Seed(seed)
		for i := 0; i < int(draws); i++ {
			w := ref.Uint64()
			if g := got.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
			if g := used.Uint64(); g != w {
				t.Fatalf("seed %d draw %d after reseed: got %#x, want %#x", seed, i, g, w)
			}
		}
	})
}

// BenchmarkSeedFresh seeds with a value no earlier op used, the cost
// every iteration of a cold request pays.
func BenchmarkSeedFresh(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i) + 2)
	}
}

// BenchmarkSeedMathRand is the reference row: math/rand's own
// expansion of the same fresh seeds.
func BenchmarkSeedMathRand(b *testing.B) {
	src := rand.NewSource(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i) + 2)
	}
}
