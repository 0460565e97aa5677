package workloads

import (
	"testing"

	"uvmasim/internal/cuda"
)

// TestValidateAll runs every workload's functional implementation against
// its reference.
func TestValidateAll(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			if err := w.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunAllSetups executes every workload under every registered setup
// at a small class and checks the breakdown is sane.
func TestRunAllSetups(t *testing.T) {
	for _, w := range All() {
		for _, setup := range cuda.Registered() {
			w, setup := w, setup
			t.Run(w.Name()+"/"+setup.String(), func(t *testing.T) {
				ctx := cuda.NewContext(cuda.DefaultSystemConfig(), setup, 11)
				if err := w.Run(ctx, Medium); err != nil {
					t.Fatal(err)
				}
				if ctx.Live() != 0 {
					t.Errorf("workload leaked %d buffers", ctx.Live())
				}
				b := ctx.Breakdown()
				if b.Total <= 0 || b.Alloc <= 0 || b.Kernel < 0 || b.Memcpy < 0 {
					t.Errorf("degenerate breakdown: %+v", b)
				}
				if b.Kernel == 0 {
					t.Errorf("kernel component should be positive")
				}
				if setup == cuda.Standard && b.Memcpy == 0 {
					t.Errorf("standard setup must show explicit transfer time")
				}
			})
		}
	}
}

// TestRunScalesWithSize checks totals grow with the input class.
func TestRunScalesWithSize(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			run := func(s Size) float64 {
				ctx := cuda.NewContext(cuda.DefaultSystemConfig(), cuda.Standard, 12)
				if err := w.Run(ctx, s); err != nil {
					t.Fatal(err)
				}
				return ctx.Breakdown().Total
			}
			small, large := run(Small), run(Super)
			if large <= small {
				t.Errorf("Super total (%v) should exceed Small total (%v)", large, small)
			}
		})
	}
}

func TestRegistryGroups(t *testing.T) {
	if n := len(Micro()); n != 7 {
		t.Errorf("microbenchmark count = %d, want 7 (Table 2)", n)
	}
	if len(Apps()) > 0 && len(Apps()) != 14 {
		t.Errorf("application count = %d, want 14 once complete (Table 2)", len(Apps()))
	}
	if _, err := ByName("vector_seq"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("ByName should reject unknown workloads")
	}
	if len(Names()) != len(All()) {
		t.Errorf("Names/All size mismatch")
	}
}

func TestSizeTable(t *testing.T) {
	if Large.Footprint() != 512<<20 || Mega.Footprint() != 32<<30 {
		t.Errorf("footprints disagree with Table 3")
	}
	for i := 1; i < len(AllSizes); i++ {
		if AllSizes[i].Footprint() != 8*AllSizes[i-1].Footprint() {
			t.Errorf("footprints should grow 8x per class")
		}
	}
	// Dim helpers fit within the byte budget.
	for _, s := range AllSizes {
		if got := s.Elems1D(2) * 2 * 4; got > s.Footprint() {
			t.Errorf("%v: 1D footprint %d exceeds budget", s, got)
		}
		n := s.Dim2D(3)
		if 3*4*n*n > s.Footprint() {
			t.Errorf("%v: 2D footprint exceeds budget", s)
		}
		if half := n * 2; 3*4*half*half <= s.Footprint() {
			t.Errorf("%v: 2D dim %d not maximal", s, n)
		}
		m := s.Dim3D(2)
		if 2*4*m*m*m > s.Footprint() {
			t.Errorf("%v: 3D footprint exceeds budget", s)
		}
	}
	if _, err := ParseSize("large"); err != nil {
		t.Error(err)
	}
	if _, err := ParseSize("giga"); err == nil {
		t.Error("ParseSize should reject unknown classes")
	}
}

// loopDim2D and loopDim3D are the original increment-loop grid sizers
// over a per-grid element budget, kept as the reference for the
// closed-form integer roots.
func loopDim2D(per int64) int64 {
	n := int64(1)
	for (n+1)*(n+1) <= per {
		if n*2*(n*2) <= per {
			n *= 2
		} else {
			n++
		}
	}
	return n
}

func loopDim3D(per int64) int64 {
	n := int64(1)
	for (n+1)*(n+1)*(n+1) <= per {
		if 8*n*n*n <= per {
			n *= 2
		} else {
			n++
		}
	}
	return n
}

// TestDimClosedFormMatchesLoop pins Dim2D/Dim3D to the loops they
// replaced for every size class and buffer count 0..12, and intRoot to
// them over every small budget (perfect powers and 0 included).
func TestDimClosedFormMatchesLoop(t *testing.T) {
	for _, s := range AllSizes {
		for buffers := 0; buffers <= 12; buffers++ {
			per := s.Footprint() / int64(4*max(buffers, 1))
			if got, want := s.Dim2D(buffers), loopDim2D(per); got != want {
				t.Errorf("%v.Dim2D(%d) = %d, loop gives %d", s, buffers, got, want)
			}
			if got, want := s.Dim3D(buffers), loopDim3D(per); got != want {
				t.Errorf("%v.Dim3D(%d) = %d, loop gives %d", s, buffers, got, want)
			}
		}
	}
	for per := int64(0); per <= 5000; per++ {
		if got, want := intRoot(per, 2), loopDim2D(per); got != want {
			t.Fatalf("intRoot(%d, 2) = %d, loop gives %d", per, got, want)
		}
		if got, want := intRoot(per, 3), loopDim3D(per); got != want {
			t.Fatalf("intRoot(%d, 3) = %d, loop gives %d", per, got, want)
		}
	}
}
