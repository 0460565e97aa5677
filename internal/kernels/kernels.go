// Package kernels provides builders that derive gpu.KernelSpec work
// descriptions from algorithm structure — element counts, stencil
// shapes, tile geometry — so each workload states *what* its kernel does
// and the builder translates that into the analytic quantities the GPU
// model consumes.
package kernels

import (
	"uvmasim/internal/gpu"
)

// DefaultThreads is the paper's default threads-per-block (§5.1).
const DefaultThreads = 256

// DefaultBlocks is the paper's default grid size for the
// microbenchmarks (§5.1 sweeps 4096 down to 16).
const DefaultBlocks = 4096

// Grid picks a launch geometry for elems work items: the paper's default
// 4096x256 for large inputs, shrinking for small ones.
func Grid(elems int64) (blocks, threads int) {
	threads = DefaultThreads
	blocks = int((elems + int64(threads) - 1) / int64(threads))
	if blocks > DefaultBlocks {
		blocks = DefaultBlocks
	}
	if blocks < 1 {
		blocks = 1
	}
	return blocks, threads
}

// Stream describes an element-wise kernel over vectors: loadsPerElem
// input streams and storesPerElem output streams of float32, with the
// given arithmetic per element.
func Stream(name string, elems int64, loadsPerElem, storesPerElem int, flopsPerElem, intPerElem float64, access gpu.Access) gpu.KernelSpec {
	blocks, threads := Grid(elems)
	return gpu.KernelSpec{
		Name:            name,
		Blocks:          blocks,
		ThreadsPerBlock: threads,
		LoadBytes:       4 * elems * int64(loadsPerElem),
		StoreBytes:      4 * elems * int64(storesPerElem),
		Flops:           flopsPerElem * float64(elems),
		IntOps:          intPerElem * float64(elems),
		CtrlOps:         float64(elems) / 8, // one loop trip per unrolled 8 elements
		TileBytes:       16 << 10,
		Access:          access,
		WorkingSetKB:    8,
	}
}

// Stencil describes a convolution/diffusion kernel over cells grid
// points with a `points`-wide neighborhood. Halo re-reads are served by
// the staging tile, so unique loads stay ~one pass over the grid while
// algorithmic loads scale with the stencil size.
func Stencil(name string, cells int64, points int, intPerCell float64) gpu.KernelSpec {
	blocks, threads := Grid(cells)
	access := 4 * cells * int64(points) / 4 // tile reuse serves ~3/4 of taps
	if access < 4*cells {
		access = 4 * cells // at least one pass over the grid
	}
	return gpu.KernelSpec{
		Name:            name,
		Blocks:          blocks,
		ThreadsPerBlock: threads,
		LoadBytes:       4 * cells,
		LoadAccessBytes: access,
		StoreBytes:      4 * cells,
		Flops:           2 * float64(points) * float64(cells),
		IntOps:          intPerCell * float64(cells),
		CtrlOps:         float64(cells) / 4,
		TileBytes:       8 << 10,
		Access:          gpu.Sequential,
		WorkingSetKB:    48,
		// Halving the double-buffered tile re-reads halos and redoes
		// index math; the paper measures a 2.46x kernel-time hit for
		// 2DCONV under async (§4.1.1).
		AsyncComputePenalty: 1.9,
		AsyncCtrlFactor:     1.6,
		AsyncLoadInflation:  1.15,
	}
}

// MatMul describes a shared-memory-tiled dense matrix multiply
// C[m,n] += A[m,k]*B[k,n] with square register/tile blocking of width
// tileDim (the effective reuse factor of global loads).
func MatMul(name string, m, n, k int64, tileDim int64) gpu.KernelSpec {
	if tileDim <= 0 {
		tileDim = 128
	}
	outElems := m * n
	blocks, threads := Grid(outElems / 64) // each thread computes an 8x8 register tile
	// Panel re-reads beyond the tile blocking are filtered by the 40 MB
	// L2, so the HBM-visible reload factor saturates quickly; dense
	// matmul stays compute-bound, as on the real part.
	reload := k / tileDim
	if reload < 1 {
		reload = 1
	}
	if reload > 4 {
		reload = 4
	}
	return gpu.KernelSpec{
		Name:            name,
		Blocks:          blocks,
		ThreadsPerBlock: threads,
		LoadBytes:       4 * (m*k + k*n),
		LoadAccessBytes: 4 * (m*k + k*n) * reload,
		StoreBytes:      4 * outElems,
		Flops:           2 * float64(m) * float64(n) * float64(k),
		IntOps:          8 * float64(outElems),
		CtrlOps:         float64(outElems) / 4,
		TileBytes:       16 << 10,
		Access:          gpu.Strided,
		WorkingSetKB:    64,
		// Async double buffering halves the K-slab held in shared
		// memory: more pipeline commits and barrier logic per output
		// (gemm spends 7.86% more kernel time under prefetch+async,
		// §4.1.1) but little redundant traffic.
		AsyncComputePenalty: 1.07,
		AsyncCtrlFactor:     1.45,
	}
}

// MatVec describes y = A*x for an m x n matrix.
func MatVec(name string, m, n int64) gpu.KernelSpec {
	blocks, threads := Grid(m)
	return gpu.KernelSpec{
		Name:            name,
		Blocks:          blocks,
		ThreadsPerBlock: threads,
		LoadBytes:       4 * (m*n + n),
		StoreBytes:      4 * m,
		Flops:           2 * float64(m) * float64(n),
		IntOps:          2 * float64(m*n) / 8,
		CtrlOps:         float64(m*n) / 32,
		TileBytes:       16 << 10,
		Access:          gpu.Strided,
		WorkingSetKB:    32,
	}
}
