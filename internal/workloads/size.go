// Package workloads implements the paper's benchmark suite: the 7
// microbenchmarks and 14 real-world applications of Table 2, each written
// once against the cuda API so that every registered data-transfer setup
// runs the same code. Every workload has two faces:
//
//   - a functional implementation (pure Go) validated against an
//     independent reference at small scale, from which
//   - an analytic kernel description (gpu.KernelSpec) is derived for the
//     timing runs at the paper's input scales.
package workloads

import (
	"encoding/json"
	"fmt"
	"math"

	"uvmasim/internal/nearest"
)

// Size is one of the six input-size classes of Table 3.
type Size int

const (
	Tiny Size = iota
	Small
	Medium
	Large
	Super
	Mega
)

// AllSizes lists the classes in growing order.
var AllSizes = []Size{Tiny, Small, Medium, Large, Super, Mega}

// String returns the paper's class name.
func (s Size) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	case Super:
		return "super"
	case Mega:
		return "mega"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// MarshalJSON encodes the size as its class name ("large"), so
// machine-readable figure output stays self-describing.
func (s Size) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// ParseSize resolves a class by name.
func ParseSize(name string) (Size, error) {
	names := make([]string, len(AllSizes))
	for i, s := range AllSizes {
		if s.String() == name {
			return s, nil
		}
		names[i] = AllSizes[i].String()
	}
	return 0, fmt.Errorf("workloads: unknown size %q%s", name, nearest.Hint(name, names, 2))
}

// Footprint returns the class's total memory footprint in bytes
// (Table 3's "Mem" row: 1 MB to 32 GB).
func (s Size) Footprint() int64 {
	switch s {
	case Tiny:
		return 1 << 20
	case Small:
		return 8 << 20
	case Medium:
		return 64 << 20
	case Large:
		return 512 << 20
	case Super:
		return 4 << 30
	default:
		return 32 << 30
	}
}

// Elems1D splits the class footprint across `buffers` float32 vectors and
// returns the per-vector element count.
func (s Size) Elems1D(buffers int) int64 {
	if buffers < 1 {
		buffers = 1
	}
	return s.Footprint() / int64(4*buffers)
}

// Dim2D returns the side of a square float32 grid such that `buffers`
// such grids fill the class footprint: the largest n with n*n elements
// within one grid's share (at least 1).
func (s Size) Dim2D(buffers int) int64 { return intRoot(s.Elems1D(buffers), 2) }

// Dim3D returns the side of a cubic float32 grid such that `buffers`
// such grids fill the class footprint: the largest n with n*n*n elements
// within one grid's share (at least 1).
func (s Size) Dim3D(buffers int) int64 { return intRoot(s.Elems1D(buffers), 3) }

// intRoot returns the largest n >= 1 with n^k <= per (1 when per < 1).
// The floating-point root lands within a step of it; the loops correct
// the estimate exactly.
func intRoot(per int64, k int) int64 {
	pow := func(n int64) int64 {
		p := n
		for i := 1; i < k; i++ {
			p *= n
		}
		return p
	}
	n := max(1, int64(math.Pow(float64(per), 1/float64(k))))
	for n > 1 && pow(n) > per {
		n--
	}
	for pow(n+1) <= per {
		n++
	}
	return n
}
