package main

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uvmasim/internal/serve"
)

// postSpec sends one experiment spec to a fresh server and returns the
// status and body.
func postSpec(t *testing.T, spec string) (int, string) {
	t.Helper()
	s := serve.New(serve.Config{Log: log.New(io.Discard, "", 0)})
	req := httptest.NewRequest(http.MethodPost, "/v1/experiments", strings.NewReader(spec))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

// TestCLISpecParity: the run flags and the spec fields describe one
// Request, so the CLI's -json output equals the server's response for
// the same run, and a run one path rejects, the other rejects too, with
// the same error text.
func TestCLISpecParity(t *testing.T) {
	same := []struct {
		args []string
		spec string
	}{
		{[]string{"-i", "1", "-seed", "7", "-size", "tiny", "-setups", "standard,uvm,uvm_zerocopy", "micro"},
			`{"figure":"micro","iters":1,"seed":7,"size":"tiny","setups":["standard","uvm","uvm_zerocopy"]}`},
		{[]string{"-i", "1", "-size", "small", "-jobs", "4", "-gpus", "2", "-topology", "nvlink", "-policy", "bandwidth-aware", "fig14,multigpu"},
			`{"figures":["fig14","multigpu"],"iters":1,"size":"small","jobs":4,"gpus":[2],"topology":["nvlink"],"policy":"bandwidth-aware"}`},
		{[]string{"-i", "1", "-size", "tiny", "-workload", "vector_seq", "-profiles", "a100-40g-pcie4,grace-hopper-c2c", "compare-profiles"},
			`{"figure":"compare-profiles","iters":1,"size":"tiny","workload":"vector_seq","profiles":["a100-40g-pcie4","grace-hopper-c2c"]}`},
		{[]string{"-i", "1", "-seed", "3", "-profile", "v100-16g-pcie3", "-size", "tiny", "fig12"},
			`{"figure":"fig12","iters":1,"seed":3,"profile":"v100-16g-pcie3","size":"tiny"}`},
		{[]string{"-i", "1", "all"}, `{"figure":"all","iters":1}`},
		// No run flags and no spec fields: the CLI flag defaults and the
		// spec defaults (iters, seed, jobs, workload, profile set and the
		// multigpu grid) must agree.
		{[]string{"fig14,compare-profiles,multigpu"}, `{"figures":["fig14","compare-profiles","multigpu"]}`},
	}
	for _, c := range same {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			want := capture(t, append([]string{"-json"}, c.args...)...)
			code, got := postSpec(t, c.spec)
			if code != http.StatusOK {
				t.Fatalf("POST %s: status %d: %s", c.spec, code, got)
			}
			if got != want {
				t.Errorf("POST %s diverges from CLI -json output:\n--- server\n%.1500s\n--- cli\n%.1500s", c.spec, got, want)
			}
		})
	}

	fail := []struct {
		args       []string
		spec, want string
	}{
		{[]string{"-i", "-1", "table3"}, `{"figure":"table3","iters":-1}`, "iters must be >= 1, got -1"},
		{[]string{"-jobs", "-2", "table3"}, `{"figure":"table3","jobs":-2}`, "jobs must be >= 1, got -2"},
		{[]string{"-workload", "nope", "table3"}, `{"figure":"table3","workload":"nope"}`, `unknown workload "nope"`},
		{[]string{"-size", "giga", "table3"}, `{"figure":"table3","size":"giga"}`, `"giga"`},
		{[]string{"-setups", "uvm,uvm", "table3"}, `{"figure":"table3","setups":["uvm","uvm"]}`, "listed twice"},
		{[]string{"-gpus", "0", "multigpu"}, `{"figure":"multigpu","gpus":[0]}`, `gpus entry "0" is not a positive device count`},
		{[]string{"-topology", "mesh", "multigpu"}, `{"figure":"multigpu","topology":["mesh"]}`, `"mesh"`},
		{[]string{"-policy", "best", "multigpu"}, `{"figure":"multigpu","policy":"best"}`, `"best"`},
		{[]string{"-profiles", "nope", "compare-profiles"}, `{"figure":"compare-profiles","profiles":["nope"]}`, `unknown profile "nope"`},
		{[]string{"-profile", "v100-16g-pcie3", "-size", "mega", "fig8"},
			`{"figure":"fig8","profile":"v100-16g-pcie3","size":"mega"}`, "does not fit profile v100-16g-pcie3"},
		{[]string{"-i", "4611686018427387904", "fig12"},
			`{"figure":"fig12","iters":4611686018427387904}`, "iters must be <= 100000, got 4611686018427387904"},
		{[]string{"-jobs", "4611686018427387904", "multigpu"},
			`{"figure":"multigpu","jobs":4611686018427387904}`, "jobs must be <= 16, got 4611686018427387904"},
		{[]string{"-gpus", "4611686018427387904", "multigpu"},
			`{"figure":"multigpu","gpus":[4611686018427387904]}`, "gpus entries must be <= 8, got 4611686018427387904"},
	}
	for _, c := range fail {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("CLI %v: err = %v, want %q", c.args, err, c.want)
			}
			code, body := postSpec(t, c.spec)
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				t.Fatalf("POST %s: body %q is not an error document: %v", c.spec, body, err)
			}
			if code != http.StatusBadRequest || !strings.Contains(doc.Error, c.want) {
				t.Errorf("POST %s: %d %q, want 400 with %q", c.spec, code, doc.Error, c.want)
			}
		})
	}
}
