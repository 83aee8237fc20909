package experiment

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

const suiteGoldenFile = "testdata/suite_quick.golden"

// quickRender runs one experiment the way the suite golden pins it (quick
// scale, seed 1) and renders it without E22's loopback-wire table E22w and
// its "wire acceptance" note: those time real UDP sockets, so no two runs
// agree on them.
func quickRender(t *testing.T, id string) string {
	t.Helper()
	res, err := Registry[id](SuiteOpts{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var tables []Table
	for _, tab := range res.Tables {
		if tab.Name != "E22w" {
			tables = append(tables, tab)
		}
	}
	var notes []string
	for _, n := range res.Notes {
		if !strings.HasPrefix(n, "wire acceptance") {
			notes = append(notes, n)
		}
	}
	res.Tables, res.Notes = tables, notes
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// goldenSections splits a recorded suite rendering into one section per
// experiment, keyed by ID; a section starts at its "=== <ID>: " header.
func goldenSections(text string) map[string]string {
	out := map[string]string{}
	var id string
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			id, _, _ = strings.Cut(rest, ":")
		}
		out[id] += line
	}
	delete(out, "")
	return out
}

// firstDiff reports the first line where got and want part.
func firstDiff(got, want string) string {
	gl, wl := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("line %d\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	return "no line"
}

// TestSuiteSmokeAll runs every experiment at quick scale with the
// end-to-end invariant checker armed, so every run is also conservation-
// and order-checked, and holds each experiment's rendering byte for byte
// to its section of testdata/suite_quick.golden. Equal output implies the
// structure holds: every table and figure the golden has, with the same
// rows, curves and cells. It is skipped under -short; rerun it with
// -update to re-record the golden after a deliberate change of numbers.
func TestSuiteSmokeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke test skipped in -short mode")
	}
	SetVerify(true)
	defer SetVerify(false)

	want := map[string]string{}
	if !*updateGolden {
		b, err := os.ReadFile(suiteGoldenFile)
		if err != nil {
			t.Fatalf("reading golden (run `go test -run SuiteSmokeAll ./internal/experiment -update` at a known-good commit): %v", err)
		}
		want = goldenSections(string(b))
		if len(want) != len(IDs()) {
			t.Errorf("golden has %d experiments, the suite %d", len(want), len(IDs()))
		}
	}
	var got strings.Builder
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			out := quickRender(t, id)
			got.WriteString(out)
			if !*updateGolden && out != want[id] {
				t.Errorf("%s moved from the golden, first difference at %s", id, firstDiff(out, want[id]))
			}
		})
	}
	if *updateGolden && !t.Failed() {
		if err := os.WriteFile(suiteGoldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
