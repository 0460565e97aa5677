package core

import (
	"encoding/json"
	"strings"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
	"uvmasim/internal/workloads"
)

// TestStudiesHandleSixSetups runs a breakdown study, its text table, its
// JSON document and the cross-profile comparison with a six-setup study
// list (the paper's five plus uvm_smcopy) and checks every consumer
// follows the study's own list: N columns, standard still the baseline,
// no panics anywhere.
func TestStudiesHandleSixSetups(t *testing.T) {
	syn := cuda.UVMSMCopy
	r := testRunner(2)
	r.Setups = append(cuda.PaperSetups(), syn)

	study, err := r.BreakdownComparison(mustWorkloads(t, "vector_seq"), workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Setups) != 6 || study.Baseline != 0 {
		t.Fatalf("study setups = %v baseline = %d", study.Setups, study.Baseline)
	}
	for _, row := range study.Rows {
		if len(row.BySetup) != 6 {
			t.Fatalf("row %s has %d breakdowns, want 6", row.Workload, len(row.BySetup))
		}
	}
	text := study.Doc("fig7").Text()
	if !strings.Contains(text, "uvm_smcopy") {
		t.Errorf("render misses the sixth setup:\n%s", text)
	}
	if imp := study.GeoMeanImprovement(syn); imp == 0 {
		t.Errorf("sixth setup improvement should be computed, got 0")
	}

	doc := study.Doc("fig7")
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "uvm_smcopy") {
		t.Errorf("JSON doc misses the sixth setup")
	}

	ps, err := r.CompareProfiles([]profile.Profile{profile.Default()}, "vector_seq", workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Setups) != 6 || ps.Baseline != 0 {
		t.Fatalf("profile study setups = %v baseline = %d", ps.Setups, ps.Baseline)
	}
	for _, row := range ps.Rows {
		if len(row.BySetup) != 6 {
			t.Fatalf("profile row has %d breakdowns, want 6", len(row.BySetup))
		}
		if row.BestImprovement < 0 {
			t.Errorf("best-vs-baseline improvement negative: %v", row.BestImprovement)
		}
	}
	if !strings.Contains(ps.Doc().Text(), "uvm_smcopy") {
		t.Errorf("profile render misses the sixth setup")
	}
}

// TestSubsetBaselineFollowsRegistry: a study list without the standard
// setup normalizes against its first setup; with standard anywhere in
// the list, standard is the baseline.
func TestSubsetBaselineFollowsRegistry(t *testing.T) {
	r := testRunner(1)
	r.Setups = []cuda.Setup{cuda.UVM, cuda.UVMZeroCopy}
	study, err := r.BreakdownComparison(mustWorkloads(t, "saxpy"), workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if study.Baseline != 0 || len(study.Setups) != 2 {
		t.Fatalf("uvm-first subset baseline = %d setups = %v", study.Baseline, study.Setups)
	}

	r2 := testRunner(1)
	r2.Setups = []cuda.Setup{cuda.UVM, cuda.Standard, cuda.UVMSMCopy}
	study2, err := r2.BreakdownComparison(mustWorkloads(t, "saxpy"), workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if study2.Baseline != 1 {
		t.Fatalf("standard-at-1 subset baseline = %d", study2.Baseline)
	}
	// Improvement math normalizes against the baseline position, so the
	// baseline's own normalized total is exactly 1.
	if total := study2.Rows[0].NormalizedTotal[1]; total != 1 {
		t.Errorf("baseline normalized total = %v, want 1", total)
	}
}
