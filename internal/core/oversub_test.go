package core

import (
	"strings"
	"testing"

	"uvmasim/internal/cuda"
)

func TestOversubscriptionSweep(t *testing.T) {
	r := testRunner(1)
	study, err := r.Oversubscription(cuda.UVMPrefetch, []float64{0.5, 0.9, 1.3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Points) != 3 {
		t.Fatalf("points = %d", len(study.Points))
	}
	under, fit, over := study.Points[0], study.Points[1], study.Points[2]
	// Within capacity: no eviction at all.
	if under.EvictedBytes != 0 || fit.EvictedBytes != 0 {
		t.Errorf("eviction below capacity: %v / %v bytes", under.EvictedBytes, fit.EvictedBytes)
	}
	// Past capacity: eviction churn appears and throughput collapses.
	if over.EvictedBytes <= 0 {
		t.Errorf("oversubscribed sweep should evict")
	}
	if over.BytesPerNs >= fit.BytesPerNs*0.8 {
		t.Errorf("oversubscription should cost throughput: %.2f vs %.2f GB/s",
			over.BytesPerNs, fit.BytesPerNs)
	}
	// Second pass over an in-capacity footprint is fault-free; the
	// oversubscribed one keeps faulting.
	if over.PageFaults <= fit.PageFaults {
		t.Errorf("oversubscribed run should fault more: %v vs %v", over.PageFaults, fit.PageFaults)
	}
	if !strings.Contains(study.Doc().Text(), "Oversubscription") {
		t.Error("render incomplete")
	}
}

func TestOversubscriptionRequiresUVM(t *testing.T) {
	r := testRunner(1)
	if _, err := r.Oversubscription(cuda.Standard, []float64{0.5}, 1); err == nil {
		t.Error("standard setup should be rejected")
	}
}
