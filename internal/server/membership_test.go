package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/membership"
	"sliceline/internal/obs"
)

// mustAnnounce registers a worker with the registrar as slworker -join would.
func mustAnnounce(t *testing.T, reg *membership.Registrar, id, addr string, inc uint64) {
	t.Helper()
	if _, err := reg.Announce(membership.Announce{
		Member: membership.Member{ID: id, Addr: addr, Incarnation: inc},
	}); err != nil {
		t.Fatalf("announce %s: %v", id, err)
	}
}

// elasticReference runs the job's configuration against a single-member
// in-process elastic cluster: the fixed partition split makes its result the
// bit-exact expectation for any fleet size, including zero.
func elasticReference(t *testing.T, entry *datasetEntry, cfg core.Config) *core.Result {
	t.Helper()
	ref, err := dist.NewElasticCluster(func(_ context.Context, _ membership.Member) (dist.Worker, error) {
		return &dist.InProcessWorker{}, nil
	}, dist.Options{PlacementSeed: entry.Sig})
	if err != nil {
		t.Fatalf("reference cluster: %v", err)
	}
	defer ref.Close()
	ref.ApplyView(context.Background(), membership.View{
		Version: 1,
		Members: []membership.Member{{ID: "ref", Addr: "ref:0", Incarnation: 1}},
	})
	cfg.Evaluator = ref
	want, err := core.Run(context.Background(), entry.Enc, entry.DS.Features, entry.ErrVec, nil, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return want
}

func fetchCluster(t *testing.T, url string) (ClusterInfo, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	defer resp.Body.Close()
	var ci ClusterInfo
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ci); err != nil {
			t.Fatalf("decode cluster info: %v", err)
		}
	}
	return ci, resp.StatusCode
}

// TestElasticFleetEndToEnd drives the membership path through the HTTP
// surface: workers announce to a registrar instead of appearing in
// DistWorkers, jobs place partitions on whoever is in the view at run time,
// and a worker joining between jobs is picked up without reconfiguration.
func TestElasticFleetEndToEnd(t *testing.T) {
	addrs := startDistWorkers(t, 2)
	reg := membership.NewRegistrar(membership.RegistrarConfig{})
	mustAnnounce(t, reg, "w1", addrs[0], 1)

	metrics := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Pool: 2, QueueDepth: 8, Membership: reg, Metrics: metrics})

	csv := testCSV(60)
	info, code := registerCSV(t, ts, csv, "err=err&name=fleet")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	entry, err := buildDataset(strings.NewReader(csv), registerOptions{Err: "err", Name: "fleet"})
	if err != nil {
		t.Fatalf("direct buildDataset: %v", err)
	}
	rows := entry.DS.NumRows()

	// The operator view reflects the announced fleet.
	ci, code := fetchCluster(t, ts.URL)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/cluster: status %d", code)
	}
	if len(ci.Members) != 1 || ci.Members[0].ID != "w1" {
		t.Fatalf("cluster members: %+v", ci.Members)
	}

	// Healthz advertises the elastic fleet.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !h.Elastic {
		t.Fatal("healthz did not report the elastic fleet")
	}

	// EvalAuto must select distributed evaluation off the registrar alone
	// (DistWorkers is empty).
	spec := JobSpec{Dataset: info.ID, Evaluator: EvalAuto, Config: JobConfig{K: 4, Sigma: 3}}
	ji, code, body := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	if ji.Evaluator != EvalDist {
		t.Fatalf("EvalAuto with a registrar resolved to %q, want %q", ji.Evaluator, EvalDist)
	}
	done := waitJob(t, ts, ji.ID, 30*time.Second)
	if done.Status != string(jobDone) {
		t.Fatalf("job finished %q: %s", done.Status, done.Error)
	}
	want := elasticReference(t, entry, spec.Config.ToCore().WithDefaults(rows))
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalResult(t, done.Result) != canonicalResult(t, wantJSON) {
		t.Fatal("one-worker fleet result differs from the single-member reference")
	}

	// A second worker joins between jobs; the next job's fleet has both and
	// the result bits do not move.
	mustAnnounce(t, reg, "w2", addrs[1], 1)
	if ci, _ := fetchCluster(t, ts.URL); len(ci.Members) != 2 {
		t.Fatalf("cluster members after join: %+v", ci.Members)
	}
	spec2 := JobSpec{Dataset: info.ID, Evaluator: EvalDist, Config: JobConfig{K: 5, Sigma: 2}}
	ji2, code, body := postJob(t, ts, spec2)
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: status %d: %s", code, body)
	}
	done2 := waitJob(t, ts, ji2.ID, 30*time.Second)
	if done2.Status != string(jobDone) {
		t.Fatalf("job 2 finished %q: %s", done2.Status, done2.Error)
	}
	want2 := elasticReference(t, entry, spec2.Config.ToCore().WithDefaults(rows))
	want2JSON, err := json.Marshal(want2)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalResult(t, done2.Result) != canonicalResult(t, want2JSON) {
		t.Fatal("two-worker fleet result differs from the single-member reference")
	}
}

// TestElasticEmptyFleetJobDegrades is the full-fleet-loss acceptance path at
// the service level: a distributed job against a registrar nobody has joined
// completes on the driver (degraded), bit-identical, instead of erroring.
func TestElasticEmptyFleetJobDegrades(t *testing.T) {
	reg := membership.NewRegistrar(membership.RegistrarConfig{})
	metrics := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 4, Membership: reg, Metrics: metrics})

	csv := testCSV(48)
	info, code := registerCSV(t, ts, csv, "err=err&name=empty")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	entry, err := buildDataset(strings.NewReader(csv), registerOptions{Err: "err", Name: "empty"})
	if err != nil {
		t.Fatal(err)
	}

	spec := JobSpec{Dataset: info.ID, Evaluator: EvalDist, Config: JobConfig{K: 4, Sigma: 3}}
	ji, code, body := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	done := waitJob(t, ts, ji.ID, 30*time.Second)
	if done.Status != string(jobDone) {
		t.Fatalf("empty-fleet job must degrade, finished %q: %s", done.Status, done.Error)
	}

	want := elasticReference(t, entry, spec.Config.ToCore().WithDefaults(entry.DS.NumRows()))
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalResult(t, done.Result) != canonicalResult(t, wantJSON) {
		t.Fatal("degraded result differs from the fleet reference")
	}
	if n := metrics.Counter("sl_dist_degraded_total", "").Value(); n == 0 {
		t.Fatal("degraded counter never incremented")
	}
}

// TestClusterEndpointRequiresMembership: without a registrar the endpoint is
// not mounted.
func TestClusterEndpointRequiresMembership(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 2})
	if _, code := fetchCluster(t, ts.URL); code != http.StatusNotFound {
		t.Fatalf("GET /v1/cluster without membership: status %d, want 404", code)
	}
}
