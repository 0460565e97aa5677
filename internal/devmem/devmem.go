// Package devmem implements the GPU device-memory (HBM) allocator used by
// the simulated CUDA runtime: a first-fit free list over a fixed-size
// address range with block splitting and coalescing, plus the cost model
// for cudaMalloc/cudaMallocManaged/cudaFree calls.
//
// The allocator is a real allocator — double frees, leaks and
// fragmentation behave as on hardware — because the paper's execution
// breakdown (Figure 7/8 "allocation" shade, §6) hinges on allocation
// being a first-class, non-trivially-costed stage.
package devmem

import (
	"fmt"
	"sort"
)

// Addr is a device virtual address (byte offset into HBM).
type Addr int64

// block is a region of the device heap.
type block struct {
	addr Addr
	size int64
}

// Allocator is a first-fit device heap. Not safe for concurrent use.
type Allocator struct {
	capacity int64
	free     []block // sorted by addr, coalesced
	live     map[Addr]int64
	inUse    int64
}

// NewAllocator creates an allocator over capacity bytes of HBM.
func NewAllocator(capacity int64) *Allocator {
	if capacity <= 0 {
		panic("devmem: capacity must be positive")
	}
	return &Allocator{
		capacity: capacity,
		free:     []block{{addr: 0, size: capacity}},
		live:     make(map[Addr]int64),
	}
}

// Capacity returns the total HBM capacity in bytes.
func (a *Allocator) Capacity() int64 { return a.capacity }

// Reset releases every allocation, returning the allocator to its
// post-NewAllocator state while keeping the free-list and live-map
// storage warm for reuse.
func (a *Allocator) Reset() {
	a.free = append(a.free[:0], block{addr: 0, size: a.capacity})
	clear(a.live)
	a.inUse = 0
}

// InUse returns the bytes currently allocated.
func (a *Allocator) InUse() int64 { return a.inUse }

// FreeBytes returns the bytes available (possibly fragmented).
func (a *Allocator) FreeBytes() int64 { return a.capacity - a.inUse }

// LargestFree returns the largest contiguous free block.
func (a *Allocator) LargestFree() int64 {
	var m int64
	for _, b := range a.free {
		if b.size > m {
			m = b.size
		}
	}
	return m
}

// Live reports the number of outstanding allocations.
func (a *Allocator) Live() int { return len(a.live) }

// alignment matches the 512-byte alignment cudaMalloc guarantees (at
// minimum) on real devices.
const alignment = 512

func alignUp(n int64) int64 {
	return (n + alignment - 1) &^ (alignment - 1)
}

// Alloc reserves size bytes and returns the base address. It fails when
// no contiguous free block can hold the (aligned) request, mirroring
// cudaErrorMemoryAllocation.
func (a *Allocator) Alloc(size int64) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("devmem: invalid allocation size %d", size)
	}
	need := alignUp(size)
	for i, b := range a.free {
		if b.size < need {
			continue
		}
		addr := b.addr
		if b.size == need {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = block{addr: b.addr + Addr(need), size: b.size - need}
		}
		a.live[addr] = need
		a.inUse += need
		return addr, nil
	}
	return 0, fmt.Errorf("devmem: out of memory: need %d contiguous, largest free %d", need, a.LargestFree())
}

// Free releases the allocation at addr, coalescing with neighbors.
// Freeing an unknown address returns an error (double free detection).
func (a *Allocator) Free(addr Addr) error {
	size, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("devmem: free of unknown address %d", addr)
	}
	delete(a.live, addr)
	a.inUse -= size

	// Insert in address order.
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > addr })
	a.free = append(a.free, block{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = block{addr: addr, size: size}

	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].addr+Addr(a.free[i].size) == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+Addr(a.free[i-1].size) == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// SizeOf returns the (aligned) size of a live allocation.
func (a *Allocator) SizeOf(addr Addr) (int64, bool) {
	s, ok := a.live[addr]
	return s, ok
}

// CostModel prices allocator API calls. Real cudaMalloc/cudaFree cost
// grows with size (page-table setup, memset of metadata) on top of a
// fixed driver round-trip; cudaMallocManaged is cheap at call time (the
// backing pages materialize lazily on first touch) but its cudaFree must
// tear down mappings on both sides. Values are in nanoseconds.
type CostModel struct {
	MallocBase       float64 // fixed cost of cudaMalloc
	MallocPerGB      float64 // size-dependent cost of cudaMalloc
	ManagedBase      float64 // fixed cost of cudaMallocManaged
	ManagedPerGB     float64 // size-dependent cost of cudaMallocManaged
	FreeBase         float64 // fixed cost of cudaFree
	FreePerGB        float64 // size-dependent cost of cudaFree
	ManagedFreePerGB float64 // extra per-GB teardown for managed memory
}

// DefaultCostModel is calibrated so that allocation is a visible,
// near-constant fraction of the Large-input runs (§4.1.1: "the reason for
// the limited overall performance improvement on Large is the nearly
// constant data allocation overhead") and grows to dominate after
// UVM+async remove transfer time (§6: 18.99% -> 37.66%).
func DefaultCostModel() CostModel {
	return CostModel{
		MallocBase:       120e3, // 120 us
		MallocPerGB:      11e6,  // 11 ms/GB
		ManagedBase:      80e3,  // 80 us
		ManagedPerGB:     9e6,   // 9 ms/GB: lighter, mappings are lazy
		FreeBase:         100e3, // 100 us
		FreePerGB:        7e6,   // 7 ms/GB
		ManagedFreePerGB: 3e6,   // extra CPU+GPU page-table teardown
	}
}

const gb = float64(1 << 30)

// MallocTime returns the modelled duration of cudaMalloc(size).
func (c CostModel) MallocTime(size int64) float64 {
	return c.MallocBase + c.MallocPerGB*float64(size)/gb
}

// ManagedTime returns the modelled duration of cudaMallocManaged(size).
func (c CostModel) ManagedTime(size int64) float64 {
	return c.ManagedBase + c.ManagedPerGB*float64(size)/gb
}

// FreeTime returns the modelled duration of cudaFree for an allocation of
// the given size; managed allocations pay additional teardown.
func (c CostModel) FreeTime(size int64, managed bool) float64 {
	t := c.FreeBase + c.FreePerGB*float64(size)/gb
	if managed {
		t += c.ManagedFreePerGB * float64(size) / gb
	}
	return t
}
