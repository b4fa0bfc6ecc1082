package bench

import (
	"bytes"
	"strings"
	"testing"

	"sliceline/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b",
		"sigma", "fig6a", "fig6b", "fig7a", "fig7b", "table2", "mlsys",
	}
	got := map[string]bool{}
	for _, e := range Experiments() {
		got[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely registered", e.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(got), len(want))
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("table1"); !ok {
		t.Error("Lookup(table1) failed")
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Error("Lookup(nonsense) unexpectedly succeeded")
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not strictly sorted: %v", ids)
		}
	}
}

func TestTable1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow in -short mode")
	}
	var buf bytes.Buffer
	e, _ := Lookup("table1")
	if err := e.Run(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"Adult", "Covtype", "KDD98", "USCensus", "Salaries", "CriteoD21"} {
		if !strings.Contains(out, name) {
			t.Errorf("table1 output missing %s:\n%s", name, out)
		}
	}
}

func TestMLSysQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment execution is slow in -short mode")
	}
	var buf bytes.Buffer
	e, _ := Lookup("mlsys")
	if err := e.Run(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range []string{"fused sparse", "dense intermediates", "SliceFinder"} {
		if !strings.Contains(out, s) {
			t.Errorf("mlsys output missing %q:\n%s", s, out)
		}
	}
}

func TestFig4aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment execution is slow in -short mode")
	}
	var buf bytes.Buffer
	e, _ := Lookup("fig4a")
	if err := e.Run(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "candidates") {
		t.Errorf("fig4a output lacks level table:\n%s", buf.String())
	}
}

func TestScaleForModes(t *testing.T) {
	q := scaleFor(Options{Quick: true})
	f := scaleFor(Options{Quick: false})
	if q.adult >= f.adult || q.uscensus >= f.uscensus || q.criteo >= f.criteo {
		t.Errorf("quick scales %+v not smaller than full %+v", q, f)
	}
}

func TestSeedDefault(t *testing.T) {
	if (Options{}).seed() != 1 {
		t.Error("zero seed should default to 1")
	}
	if (Options{Seed: 9}).seed() != 9 {
		t.Error("explicit seed not honored")
	}
}

// TestTop1MarksTruncated: a truncated run's top-1 cells carry "*" and the
// table gets the footnote; a complete run's cells and an empty top-K do not.
func TestTop1MarksTruncated(t *testing.T) {
	top := []core.Slice{{Score: 1.5, Size: 42}}
	var marks top1Marks
	if score, size := marks.cells(&core.Result{TopK: top}); score != "1.500" || size != "42" {
		t.Fatalf("complete run: cells %q %q", score, size)
	}
	if score, size := marks.cells(&core.Result{Truncated: true}); score != "-" || size != "-" {
		t.Fatalf("empty truncated run: cells %q %q", score, size)
	}
	var buf bytes.Buffer
	marks.footnote(&buf)
	if buf.Len() != 0 {
		t.Fatalf("footnote without a marked cell: %q", buf.String())
	}
	if score, size := marks.cells(&core.Result{TopK: top, Truncated: true}); score != "1.500*" || size != "42*" {
		t.Fatalf("truncated run: cells %q %q", score, size)
	}
	if got := marks.topResult(&core.Result{TopK: top, Truncated: true}); got != "score 1.500* size 42*" {
		t.Fatalf("truncated run: top result %q", got)
	}
	marks.footnote(&buf)
	if got := buf.String(); got != "* truncated by candidate budget\n" {
		t.Fatalf("footnote %q", got)
	}
}
