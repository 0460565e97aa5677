package kernels

import (
	"math/rand"
	"testing"

	"uvmasim/internal/gpu"
)

func TestGrid(t *testing.T) {
	cases := []struct {
		elems           int64
		blocks, threads int
	}{
		{1, 1, 256},
		{256, 1, 256},
		{257, 2, 256},
		{1 << 20, 4096, 256},
		{1 << 30, 4096, 256}, // capped at the paper's default grid
	}
	for _, c := range cases {
		b, th := Grid(c.elems)
		if b != c.blocks || th != c.threads {
			t.Errorf("Grid(%d) = (%d,%d), want (%d,%d)", c.elems, b, th, c.blocks, c.threads)
		}
	}
}

func TestStreamSpec(t *testing.T) {
	s := Stream("s", 1000, 2, 1, 3, 5, gpu.Sequential)
	if s.LoadBytes != 8000 || s.StoreBytes != 4000 {
		t.Errorf("byte counts wrong: %+v", s)
	}
	if s.Flops != 3000 || s.IntOps != 5000 {
		t.Errorf("op counts wrong: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestStencilSpec(t *testing.T) {
	s := Stencil("st", 1<<20, 9, 24)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.LoadAccessBytes <= s.LoadBytes {
		t.Errorf("stencil taps should exceed unique loads")
	}
	if s.AsyncComputePenalty <= 1 {
		t.Errorf("stencil async penalty should reflect halo redundancy")
	}
}

func TestMatMulSpec(t *testing.T) {
	s := MatMul("mm", 1024, 1024, 1024, 128)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 2.0 * 1024 * 1024 * 1024
	if s.Flops != want {
		t.Errorf("flops = %v, want %v", s.Flops, want)
	}
	// L2 filtering caps the HBM reload factor.
	big := MatMul("big", 8192, 8192, 8192, 64)
	if big.LoadAccessBytes > big.LoadBytes*8 {
		t.Errorf("reload factor should be L2-capped: access %d vs unique %d",
			big.LoadAccessBytes, big.LoadBytes)
	}
	// Zero tileDim defaults sanely.
	d := MatMul("d", 256, 256, 256, 0)
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMatVecSpec(t *testing.T) {
	s := MatVec("mv", 2048, 4096)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Flops != 2*2048*4096 {
		t.Errorf("flops = %v", s.Flops)
	}
	if s.Access != gpu.Strided {
		t.Errorf("gemv should be strided")
	}
}

// Property: every builder output passes spec validation for arbitrary
// positive inputs.
func TestQuickBuildersValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		elems := int64(1 + rng.Intn(1<<22))
		specs := []gpu.KernelSpec{
			Stream("q", elems, 1+rng.Intn(3), 1, rng.Float64()*64, rng.Float64()*32, gpu.Access(rng.Intn(4))),
			Stencil("q", elems, 1+rng.Intn(27), rng.Float64()*64),
			MatMul("q", int64(1+rng.Intn(4096)), int64(1+rng.Intn(4096)), int64(1+rng.Intn(4096)), int64(rng.Intn(256))),
			MatVec("q", int64(1+rng.Intn(1<<16)), int64(1+rng.Intn(1<<16))),
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("builder produced invalid spec: %v", err)
			}
		}
	}
}
