package devmem

import (
	"math/rand"
	"testing"
)

func TestAllocBasics(t *testing.T) {
	a := NewAllocator(1 << 20)
	addr, err := a.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := a.SizeOf(addr); !ok || s != alignUp(1000) {
		t.Errorf("SizeOf = %d,%v", s, ok)
	}
	if a.InUse() != alignUp(1000) {
		t.Errorf("InUse = %d, want %d", a.InUse(), alignUp(1000))
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 0 || a.Live() != 0 {
		t.Errorf("allocator not empty after free")
	}
	if a.LargestFree() != a.Capacity() {
		t.Errorf("free list not coalesced back to full capacity")
	}
}

func TestAllocAlignment(t *testing.T) {
	a := NewAllocator(1 << 20)
	x, _ := a.Alloc(1)
	y, _ := a.Alloc(1)
	if int64(y-x) != alignment {
		t.Errorf("allocations not %d-byte aligned: %d %d", alignment, x, y)
	}
}

func TestAllocErrors(t *testing.T) {
	a := NewAllocator(4096)
	if _, err := a.Alloc(0); err == nil {
		t.Error("zero-size alloc should fail")
	}
	if _, err := a.Alloc(-1); err == nil {
		t.Error("negative alloc should fail")
	}
	if _, err := a.Alloc(8192); err == nil {
		t.Error("oversized alloc should fail")
	}
	if err := a.Free(Addr(123)); err == nil {
		t.Error("free of unknown address should fail")
	}
	addr, _ := a.Alloc(512)
	a.Free(addr)
	if err := a.Free(addr); err == nil {
		t.Error("double free should fail")
	}
}

func TestCoalescing(t *testing.T) {
	a := NewAllocator(4096)
	x, _ := a.Alloc(1024)
	y, _ := a.Alloc(1024)
	z, _ := a.Alloc(1024)
	// Free in an order that requires both successor and predecessor merges.
	a.Free(x)
	a.Free(z)
	a.Free(y)
	if a.LargestFree() != 4096 {
		t.Errorf("largest free = %d, want 4096 (full coalescing)", a.LargestFree())
	}
	if len(a.free) != 1 {
		t.Errorf("free list has %d blocks, want 1", len(a.free))
	}
}

func TestFragmentation(t *testing.T) {
	a := NewAllocator(4096)
	var addrs []Addr
	for i := 0; i < 8; i++ {
		addr, err := a.Alloc(512)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	// Free every other block: 2048 bytes free but largest hole is 512.
	for i := 0; i < 8; i += 2 {
		a.Free(addrs[i])
	}
	if a.FreeBytes() != 2048 {
		t.Errorf("free bytes = %d, want 2048", a.FreeBytes())
	}
	if a.LargestFree() != 512 {
		t.Errorf("largest free = %d, want 512", a.LargestFree())
	}
	if _, err := a.Alloc(1024); err == nil {
		t.Error("fragmented allocator should refuse a 1024-byte request")
	}
}

// Property test: random alloc/free sequences preserve the invariant
// inUse + sum(free blocks) == capacity, free blocks are sorted, disjoint
// and non-adjacent.
func TestQuickAllocatorInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 100; iter++ {
		a := NewAllocator(1 << 16)
		var live []Addr
		for step := 0; step < 300; step++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				if err := a.Free(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				addr, err := a.Alloc(int64(1 + rng.Intn(3000)))
				if err == nil {
					live = append(live, addr)
				}
			}
			var freeSum int64
			var prevEnd Addr = -1
			for _, b := range a.free {
				if b.size <= 0 {
					t.Fatalf("non-positive free block %+v", b)
				}
				if b.addr <= prevEnd {
					t.Fatalf("free list unsorted or overlapping at %+v", b)
				}
				if prevEnd >= 0 && b.addr == prevEnd {
					t.Fatalf("adjacent free blocks not coalesced")
				}
				freeSum += b.size
				prevEnd = b.addr + Addr(b.size)
			}
			if freeSum+a.InUse() != a.Capacity() {
				t.Fatalf("conservation violated: free %d + inUse %d != cap %d",
					freeSum, a.InUse(), a.Capacity())
			}
		}
	}
}

func TestCostModelMonotonic(t *testing.T) {
	c := DefaultCostModel()
	if c.MallocTime(2<<30) <= c.MallocTime(1<<30) {
		t.Error("malloc cost should grow with size")
	}
	if c.ManagedTime(1<<30) >= c.MallocTime(1<<30) {
		t.Error("managed allocation should be cheaper at call time")
	}
	if c.FreeTime(1<<30, true) <= c.FreeTime(1<<30, false) {
		t.Error("managed free should cost more")
	}
	if c.MallocTime(0) != c.MallocBase {
		t.Error("zero-size malloc should cost the base")
	}
}
