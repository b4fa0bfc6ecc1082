// Tracing acceptance for the distributed runtime: an instrumented run over a
// fault-injected cluster must emit spans for every lattice level and every
// worker RPC — including the retries and hedges the faults provoke — with the
// dist spans nested under the enumeration's spans. Lives in package dist_test
// because it drives the cluster through core.Run with faults-wrapped workers.
package dist_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/faults"
	"sliceline/internal/obs"
)

func attrStr(sp *obs.Span, key string) string {
	for _, a := range sp.Attrs() {
		if a.Key == key && a.Kind == obs.KindStr {
			return a.Str
		}
	}
	return ""
}

func hasEvent(sp *obs.Span, substr string) bool {
	for _, ev := range sp.Events() {
		if strings.Contains(ev.Name, substr) {
			return true
		}
	}
	return false
}

func TestDistTracingUnderFaults(t *testing.T) {
	ds, e := chaosDataset(77, 400, 4, 4)
	tr := obs.NewJSONTracer()
	reg := obs.NewRegistry()

	// Worker 0 hangs on every Eval, so its partition only ever completes via
	// a hedge; worker 1 crashes its first Eval, forcing a reload-in-place
	// retry. Workers 2 and 3 are clean.
	ws := []dist.Worker{
		faults.Wrap(&dist.InProcessWorker{}, everyEval(faults.Action{Kind: faults.Hang})),
		faults.Wrap(&dist.InProcessWorker{}, faults.NewSchedule().
			On(faults.OpEval, 0, faults.Action{Kind: faults.CrashBefore})),
		&dist.InProcessWorker{},
		&dist.InProcessWorker{},
	}
	cl, err := dist.NewClusterOpts(ws, dist.Options{
		HedgeDelay: 20 * time.Millisecond,
		Tracer:     tr,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cfg := core.Config{
		K: 4, Sigma: 4, Alpha: 0.9,
		Evaluator: cl, Tracer: tr, Metrics: reg,
	}
	res, err := runDS(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byName := map[string][]*obs.Span{}
	byID := map[uint64]*obs.Span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		byID[sp.ID] = sp
	}

	// Every lattice level of the result has a span.
	levelSeen := map[int64]bool{}
	for _, sp := range byName["core.level"] {
		levelSeen[sp.AttrInt("level", -1)] = true
	}
	for _, l := range res.Levels {
		if !levelSeen[int64(l.Level)] {
			t.Errorf("no span for lattice level %d", l.Level)
		}
	}

	// Setup was traced, with one load RPC span per partition under it.
	if len(byName["dist.setup"]) != 1 {
		t.Fatalf("got %d dist.setup spans, want 1", len(byName["dist.setup"]))
	}
	setup := byName["dist.setup"][0]
	nParts := setup.AttrInt("partitions", -1)
	if nParts != 4 {
		t.Fatalf("setup span partitions = %d, want 4", nParts)
	}

	// Every level the evaluator served has at least one dist.eval span, each
	// nested under a core.eval span with one partition span per partition.
	// Level 1 is computed driver-side, and a truncated final level records no
	// evaluation, so only levels >= 2 with candidates count.
	wantEvals := 0
	for _, l := range res.Levels {
		if l.Level >= 2 && l.Candidates > 0 {
			wantEvals++
		}
	}
	if wantEvals == 0 {
		t.Fatal("fixture too small: no level went through the evaluator")
	}
	evals := byName["dist.eval"]
	if len(evals) < wantEvals {
		t.Fatalf("got %d dist.eval spans for %d evaluated levels", len(evals), wantEvals)
	}
	evalIDs := map[uint64]bool{}
	for _, sp := range evals {
		parent, ok := byID[sp.Parent]
		if !ok || parent.Name != "core.eval" {
			t.Fatalf("dist.eval span %d parented under %v, want a core.eval span", sp.ID, sp.Parent)
		}
		evalIDs[sp.ID] = true
	}
	parts := byName["dist.partition"]
	if want := len(evals) * int(nParts); len(parts) != want {
		t.Fatalf("got %d dist.partition spans, want %d (%d evals x %d partitions)",
			len(parts), want, len(evals), nParts)
	}

	// Every partition evaluation produced at least one eval RPC span, and
	// every RPC span names its worker.
	rpcEvals := 0
	var sawFaultEvent, sawRPCError bool
	for _, sp := range byName["dist.rpc"] {
		if attrStr(sp, "op") != "eval" {
			continue
		}
		rpcEvals++
		if sp.AttrInt("worker", -1) < 0 {
			t.Fatalf("eval RPC span %d has no worker attribute", sp.ID)
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Fatalf("eval RPC span %d is an orphan", sp.ID)
		}
		if hasEvent(sp, "fault injected") {
			sawFaultEvent = true
		}
		if hasEvent(sp, "error:") {
			sawRPCError = true
		}
	}
	if rpcEvals < len(parts) {
		t.Fatalf("got %d eval RPC spans for %d partition evaluations", rpcEvals, len(parts))
	}
	if !sawFaultEvent {
		t.Error("no RPC span carries a fault-injection event")
	}
	if !sawRPCError {
		t.Error("no RPC span recorded the provoked error")
	}

	// The hung worker's partition was hedged, and the crash forced a retry.
	var sawHedge bool
	for _, sp := range parts {
		if hasEvent(sp, "hedge fired") {
			sawHedge = true
		}
	}
	if !sawHedge {
		t.Error("no partition span carries a hedge-fired event")
	}
	if got := reg.Counter("sl_dist_hedges_total", "").Value(); got < 1 {
		t.Errorf("hedges counter = %d, want >= 1", got)
	}
	if got := reg.Counter("sl_dist_retries_total", "").Value(); got < 1 {
		t.Errorf("retries counter = %d, want >= 1", got)
	}

	// The registry exports the dist families alongside the core ones.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		`sl_dist_rpc_seconds_count{op="eval"}`,
		`sl_dist_rpc_errors_total{op="eval"}`,
		"sl_dist_hedges_total",
		"sl_dist_partitions 4",
		"sl_core_runs_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}
