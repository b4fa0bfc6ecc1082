package perf

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sliceline/internal/core"
)

// declared is the part of BENCHMARK.json the smoke test checks against.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// smoke shrinks a run to reduced rows, two rounds per caller and one set-up.
func smoke(o Options) Options {
	o.Seed, o.small, o.rounds, o.setups = 1, true, 2, 1
	return o
}

func TestBenchmarkDeclaresWorkloadsAndMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the package runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.Name || d.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.Name, w.Why)
		}
	}
	docs := append(append([]struct{ Name, Unit string }(nil), d.EndToEnd...), d.PerLayer...)
	if len(docs) != len(metricDocs) {
		t.Fatalf("BENCHMARK.json declares %d metrics, the package documents %d", len(docs), len(metricDocs))
	}
	for i, m := range metricDocs {
		if docs[i].Name != m.Name || docs[i].Unit != m.Unit || (i < len(d.EndToEnd)) != m.EndToEnd {
			t.Errorf("metric %d: BENCHMARK.json has %s [%s], the package %s [%s]", i, docs[i].Name, docs[i].Unit, m.Name, m.Unit)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks that it passes its own checks and emits exactly the metrics
// BENCHMARK.json declares for that kind of run, with their units.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			name := w.Name + "/untraced"
			if trace {
				want, name = d.PerLayer, w.Name+"/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := Run(context.Background(), w.Name, smoke(Options{Trace: trace}))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Info.Notes)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s [%s]: emitted %+v (present %v)", m.Name, m.Unit, got, ok)
					}
				}
				if _, err := json.Marshal(rep); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCorruptResultIsAFailure checks that a result differing from its
// reference in the last bit of one score makes the run incorrect, on the
// library, distributed and service paths.
func TestCorruptResultIsAFailure(t *testing.T) {
	tamper := func(r *core.Result) {
		if len(r.TopK) > 0 {
			r.TopK[0].Score = math.Nextafter(r.TopK[0].Score, math.Inf(1))
		}
	}
	for _, name := range []string{LibCensus, DistCensus, ServeMixed} {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(context.Background(), name, smoke(Options{tamper: tamper}))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed == 0 {
				t.Fatalf("corrupted results passed: correct=%v failed=%d", rep.Correct, rep.Failed)
			}
		})
	}
}
