package serve

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uvmasim/internal/core"
	"uvmasim/internal/profile"
)

// -update is the only writer of testdata/golden_*. Use it to capture
// goldens before a change whose output must stay byte-identical, or in
// the one change that alters simulated output on purpose; regenerating
// after an accidental drift would defeat the pin.
var update = flag.Bool("update", false, "rewrite golden files from current output")

// everyFieldSpec sets every field of the run description: iterations,
// seed, size, jobs, setups, the multigpu grid and, through
// compare-profiles, the resolved machine set. It is the spec form of
// `-i 2 -seed 7 -size small -jobs 4 -setups
// standard,uvm_prefetch_async,uvm_zerocopy -gpus 2 -topology nvlink
// -policy bandwidth-aware fig8,multigpu,compare-profiles`.
const everyFieldSpec = `{"figures":["fig8","multigpu","compare-profiles"],"iters":2,"seed":7,` +
	`"size":"small","jobs":4,"setups":["standard","uvm_prefetch_async","uvm_zerocopy"],` +
	`"gpus":[2],"topology":["nvlink"],"policy":"bandwidth-aware"}`

// TestGoldenFigures pins every figure on the default profile at -i 2
// -seed 1, plus the every-field run, byte for byte in both encodings:
// testdata/golden_<name>.txt holds what `uvmbench <flags> <figures>`
// prints and golden_<name>.json what `uvmbench -json ...` prints (and
// POST /v1/experiments answers) for the same run. Goldens are
// deterministic, so they check cross-machine byte identity on every
// runner that runs the tests.
func TestGoldenFigures(t *testing.T) {
	type run struct{ name, spec string }
	var runs []run
	for _, fig := range FigureNames {
		runs = append(runs, run{fig, `{"figure":"` + fig + `","iters":2,"seed":1}`})
	}
	runs = append(runs, run{"every-field", everyFieldSpec})
	for _, c := range runs {
		t.Run(c.name, func(t *testing.T) {
			req, err := ParseSpec(strings.NewReader(c.spec), profile.Default())
			if err != nil {
				t.Fatal(err)
			}
			r := req.Runner(core.NewRunnerFor(req.Profile))
			var text, js strings.Builder
			for _, fig := range req.expanded() {
				thunk, doc, err := Figure(r, fig, req.FigureOptions)
				if err != nil {
					t.Fatal(err)
				}
				text.WriteString(thunk())
				s, err := core.RenderJSON(doc)
				if err != nil {
					t.Fatal(err)
				}
				js.WriteString(s)
			}
			checkGolden(t, "golden_"+c.name+".txt", text.String())
			checkGolden(t, "golden_"+c.name+".json", js.String())
		})
	}
}

// checkGolden compares got against testdata/name, or rewrites the file
// under -update. A mismatch reports the first divergent byte.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(b)
	if got == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	t.Errorf("%s: output diverges from the golden at byte %d\n got: %q\nwant: %q",
		name, i, got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}
