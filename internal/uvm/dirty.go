package uvm

import "math/bits"

// Dirty bookkeeping: r.dirty holds one bit per chunk, chunk i in bit i%64
// of word i/64, and r.dirtyCount counts the set bits. Marking a range
// sets up to 64 chunks per word, eviction clears one bit, and the
// writeback paths walk the set bits in ascending chunk order, skipping a
// clean word with one test.

// markDirtyRange marks chunks [first, last] dirty.
func (r *Region) markDirtyRange(first, last int) {
	for wi := first >> 6; wi <= last>>6; wi++ {
		mask := ^uint64(0)
		if wi == first>>6 {
			mask <<= first & 63
		}
		if wi == last>>6 {
			mask &= ^uint64(0) >> (63 - last&63)
		}
		r.dirtyCount += bits.OnesCount64(mask &^ r.dirty[wi])
		r.dirty[wi] |= mask
	}
}

// cleanChunk clears chunk idx's dirty bit and reports whether it was set.
func (r *Region) cleanChunk(idx int) bool {
	w, bit := &r.dirty[idx>>6], uint64(1)<<(idx&63)
	if *w&bit == 0 {
		return false
	}
	*w &^= bit
	r.dirtyCount--
	return true
}

// dirtyWords is the number of bitmap words that cover n chunks.
func dirtyWords(n int) int { return (n + 63) >> 6 }
