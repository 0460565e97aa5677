package serve

import (
	"net/http"
	"strings"
	"testing"

	"uvmasim/internal/core"
	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
)

// TestSpecSetupsSubset: the spec's "setups" field narrows the study to
// the named registered setups — the extension modes run through the
// service, excluded setups stay out of the response — and bad names are
// rejected upfront with a nearest-name hint.
func TestSpecSetupsSubset(t *testing.T) {
	s := New(quietConfig())
	h := s.Handler()

	w := post(h, `{"figure":"fig7","iters":1,"size":"tiny","setups":["standard","uvm_zerocopy","uvm_smcopy"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	body := w.Body.String()
	for _, want := range []string{"uvm_zerocopy", "uvm_smcopy"} {
		if !strings.Contains(body, want) {
			t.Errorf("response lacks subset setup %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "uvm_prefetch_async") {
		t.Errorf("excluded setup leaked into the response:\n%s", body)
	}

	cases := []struct{ name, body, wantErr string }{
		{"typo", `{"figure":"fig7","setups":["uvm_zercopy"]}`, "uvm_zerocopy"},
		{"duplicate", `{"figure":"fig7","setups":["uvm","uvm"]}`, "listed twice"},
		{"empty", `{"figure":"fig7","setups":[" "]}`, "names no setups"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := post(h, c.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", w.Code, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), c.wantErr) {
				t.Errorf("error %q should contain %q", w.Body.String(), c.wantErr)
			}
		})
	}
}

// TestSpecSetupsWithoutMemcpy: a study whose baseline copies nothing
// (zero-copy and SM-copy only) has no memcpy to save, so the mean
// saving is undefined. It encodes as null, and the response matches
// the CLI -json output byte for byte.
func TestSpecSetupsWithoutMemcpy(t *testing.T) {
	h := New(quietConfig()).Handler()
	w := post(h, `{"figure":"micro","iters":1,"size":"tiny","setups":["uvm_zerocopy","uvm_smcopy"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	r := core.NewRunnerFor(profile.Default())
	r.Iterations = 1
	r.Setups = []cuda.Setup{cuda.UVMZeroCopy, cuda.UVMSMCopy}
	doc, err := Figure(r, "micro", FigureOptions{Size: "tiny", Jobs: 8, Workload: "gemm"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RenderJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Body.String(); got != want {
		t.Errorf("response diverges from CLI -json output:\n%s\nvs\n%s", got, want)
	}
	if !strings.Contains(want, `"mean_memcpy_savings": null`) {
		t.Errorf("undefined saving not encoded as null:\n%s", want)
	}
}

// TestSpecSetupsDefault: without "setups" the service runs the paper's
// five-setup presentation — extension modes never appear in default
// responses (the byte-identity guarantee for existing clients).
func TestSpecSetupsDefault(t *testing.T) {
	s := New(quietConfig())
	h := s.Handler()
	w := post(h, `{"figure":"fig7","iters":1,"size":"tiny"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if body := w.Body.String(); strings.Contains(body, "uvm_zerocopy") || strings.Contains(body, "uvm_smcopy") {
		t.Errorf("extension modes leaked into the default response:\n%s", body)
	}
}
