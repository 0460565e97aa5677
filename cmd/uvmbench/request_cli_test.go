package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"uvmasim/internal/profile"
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

// TestFlaglessRequestMatchesSpec: the Request the CLI builds without run
// flags — read back from a shard artifact, whose spec is that Request —
// equals the one ParseSpec builds from a spec naming only the figure.
// Both start from serve.NewRequest, so the CLI flag defaults and the
// spec defaults cannot drift apart.
func TestFlaglessRequestMatchesSpec(t *testing.T) {
	var art shardArtifact
	if err := json.Unmarshal([]byte(capture(t, "-shard", "1/1", "table3")), &art); err != nil {
		t.Fatal(err)
	}
	want, err := serve.ParseSpec(strings.NewReader(`{"figure":"table3"}`), profile.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art.Spec, *want) {
		got, _ := json.Marshal(art.Spec)
		wantJSON, _ := json.Marshal(want)
		t.Errorf("flagless CLI Request differs from the spec's:\ncli:  %.600s\nspec: %.600s", got, wantJSON)
	}
}

// TestMergeCacheDirWarm: merge -cache-dir leaves behind the warm store a
// single-shot -cache-dir run would have written, so a later run with
// the shard producers' flags prints the merged bytes from store hits
// alone.
func TestMergeCacheDirWarm(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cellstore")
	runFlags := []string{"-i", "1", "-seed", "5", "-size", "tiny", "fig12,oversub"}
	files := make([]string, 2)
	for i := range files {
		art := capture(t, append([]string{"-shard", fmt.Sprintf("%d/2", i+1)}, runFlags...)...)
		files[i] = filepath.Join(dir, fmt.Sprintf("shard%d.json", i+1))
		if err := os.WriteFile(files[i], []byte(art), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	merged, _ := captureStderr(t, append([]string{"-cache-dir", cache, "merge"}, files...)...)
	warm, footer := captureStderr(t, append([]string{"-cache-dir", cache}, runFlags...)...)
	if warm != merged {
		t.Errorf("-cache-dir run after merge diverges from the merged output")
	}
	if !regexp.MustCompile(`store: [1-9][0-9]* hits, 0 misses`).MatchString(footer) {
		t.Errorf("-cache-dir run after merge should hit the store for every cell, footer %q", footer)
	}
}
