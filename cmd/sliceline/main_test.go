package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sliceline/internal/core"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

const testCSV = `color,size,y
red,1,0
blue,2,1
red,1,0
blue,2,1
green,3,0
red,1,1
blue,2,1
green,3,0
red,1,0
blue,2,1
`

func TestLoadCSVClassification(t *testing.T) {
	path := writeTemp(t, testCSV)
	ds, e, err := loadCSV(path, "y", "class", 5)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 10 || ds.NumFeatures() != 2 {
		t.Fatalf("shape %dx%d, want 10x2", ds.NumRows(), ds.NumFeatures())
	}
	if len(e) != 10 {
		t.Fatalf("error vector length %d", len(e))
	}
	for _, v := range e {
		if v != 0 && v != 1 {
			t.Fatalf("classification error %v not 0/1", v)
		}
	}
}

func TestLoadCSVRegression(t *testing.T) {
	path := writeTemp(t, testCSV)
	_, e, err := loadCSV(path, "y", "reg", 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e {
		if v < 0 {
			t.Fatalf("negative squared loss %v", v)
		}
	}
}

func TestLoadCSVErrors(t *testing.T) {
	path := writeTemp(t, testCSV)
	if _, _, err := loadCSV(path, "", "class", 5); err == nil {
		t.Error("expected error for missing label")
	}
	if _, _, err := loadCSV(path, "y", "bogus", 5); err == nil {
		t.Error("expected error for unknown task")
	}
	if _, _, err := loadCSV(filepath.Join(t.TempDir(), "missing.csv"), "y", "class", 5); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestLoadInputSynthetic(t *testing.T) {
	ds, e, err := loadInput("salaries", "", "", "", 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 397 || len(e) != 397 {
		t.Fatalf("salaries shape %d rows, %d errors", ds.NumRows(), len(e))
	}
}

func TestLoadInputUnknown(t *testing.T) {
	if _, _, err := loadInput("nope", "", "", "", 10, 0, 1); err == nil {
		t.Error("expected error for unknown dataset")
	}
	if _, _, err := loadInput("", "", "", "", 10, 0, 1); err == nil {
		t.Error("expected error when neither dataset nor csv given")
	}
}

func TestDialClusterFailure(t *testing.T) {
	if code, _ := runCLI(t, "-dataset", "salaries", "-workers", "127.0.0.1:1"); code != 1 {
		t.Errorf("unreachable worker: exit %d, want 1", code)
	}
	if code, _ := runCLI(t, "-dataset", "salaries", "-workers", " , "); code != 2 {
		t.Errorf("empty worker list: exit %d, want 2", code)
	}
}

// runCLI invokes the command entry point and returns its exit code and
// stdout.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	if code != 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	return code, out.String()
}

// topKLines extracts the "#i ..." result lines — the part of the output that
// must be byte-identical across resumed runs (headers carry elapsed times).
func topKLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestRunResumeByteIdentical: a checkpointed run capped at level 2, resumed
// without the cap, must print exactly the same top-K as one uninterrupted
// run.
func TestRunResumeByteIdentical(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "run.ck")
	code, full := runCLI(t, "-dataset", "salaries", "-k", "4")
	if code != 0 {
		t.Fatalf("reference run exited %d", code)
	}
	want := topKLines(full)
	if len(want) == 0 {
		t.Fatal("reference run found no slices; test exercises nothing")
	}

	if code, _ := runCLI(t, "-dataset", "salaries", "-k", "4", "-maxlevel", "2", "-checkpoint", ck); code != 0 {
		t.Fatalf("checkpointed run exited %d", code)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	code, resumed := runCLI(t, "-dataset", "salaries", "-k", "4", "-checkpoint", ck, "-resume")
	if code != 0 {
		t.Fatalf("resumed run exited %d", code)
	}
	got := topKLines(resumed)
	if len(got) != len(want) {
		t.Fatalf("resumed run printed %d slices, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slice %d differs after resume:\n got %q\nwant %q", i+1, got[i], want[i])
		}
	}
}

// TestRunResumeRejectsMismatch: resuming against a checkpoint from different
// parameters must fail loudly.
func TestRunResumeRejectsMismatch(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "run.ck")
	if code, _ := runCLI(t, "-dataset", "salaries", "-k", "4", "-checkpoint", ck); code != 0 {
		t.Fatalf("checkpointed run exited %d", code)
	}
	if code, _ := runCLI(t, "-dataset", "salaries", "-k", "4", "-alpha", "0.5", "-checkpoint", ck, "-resume"); code == 0 {
		t.Fatal("resume with different alpha should fail")
	}
}

// TestRunFlagValidation covers the new flag edge cases.
func TestRunFlagValidation(t *testing.T) {
	if code, _ := runCLI(t, "-resume"); code != 2 {
		t.Errorf("-resume without -checkpoint exited %d, want 2", code)
	}
	if code, _ := runCLI(t, "-bogus-flag"); code != 2 {
		t.Errorf("unknown flag exited %d, want 2", code)
	}
	if code, _ := runCLI(t); code != 1 {
		t.Errorf("no dataset exited %d, want 1", code)
	}
}

// TestRunTraceAndMetrics: -trace writes a span dump covering every lattice
// level, -metrics-addr serves Prometheus text with the core metric families,
// and -json emits the versioned result schema — the CLI observability surface
// end to end.
func TestRunTraceAndMetrics(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var outBuf, errBuf strings.Builder
	code := run([]string{"-dataset", "salaries", "-k", "3",
		"-trace", tracePath, "-metrics-addr", "127.0.0.1:0", "-json"}, &outBuf, &errBuf)
	if code != 0 {
		t.Fatalf("run exited %d, stderr: %s", code, errBuf.String())
	}
	out := outBuf.String()

	var res core.Result
	jsonStart := strings.Index(out, "{")
	if jsonStart < 0 {
		t.Fatalf("no JSON object in output:\n%s", out)
	}
	if err := json.Unmarshal([]byte(out[jsonStart:]), &res); err != nil {
		t.Fatalf("result JSON does not round-trip: %v", err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace dump not written: %v", err)
	}
	var doc struct {
		SchemaVersion int `json:"schema_version"`
		Spans         []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace dump is not a JSON span document: %v", err)
	}
	if doc.SchemaVersion != 1 {
		t.Errorf("trace schema_version = %d, want 1", doc.SchemaVersion)
	}
	names := make(map[string]int)
	for _, sp := range doc.Spans {
		names[sp.Name]++
	}
	if names["core.run"] != 1 {
		t.Errorf("got %d core.run spans, want 1 (names: %v)", names["core.run"], names)
	}
	if names["core.level"] != len(res.Levels) {
		t.Errorf("got %d core.level spans for %d levels", names["core.level"], len(res.Levels))
	}

	if !strings.Contains(errBuf.String(), "serving metrics and pprof on http://") {
		t.Errorf("metrics server address not announced:\n%s", errBuf.String())
	}
}
