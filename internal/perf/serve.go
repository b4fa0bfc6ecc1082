package perf

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"sliceline"
	"sliceline/internal/core"
	"sliceline/internal/datagen"
	"sliceline/internal/frame"
	"sliceline/internal/server"
)

// serveConfigs are serve-mixed's job configs, K∈{4,8} × α∈{0.9,0.95,0.99}.
var serveConfigs = []server.JobConfig{
	{K: 4, Alpha: 0.9}, {K: 4, Alpha: 0.95}, {K: 4, Alpha: 0.99},
	{K: 8, Alpha: 0.9}, {K: 8, Alpha: 0.95}, {K: 8, Alpha: 0.99},
}

const (
	serveClients = 2
	servePool    = 2
	// appendRows is the size of one append batch.
	appendRows = 64
	// hitsPerRound is how many of a round's jobs repeat an earlier config.
	hitsPerRound = 2
)

// serveSession is slserve in-process behind a loopback listener, with one
// client per dataset.
type serveSession struct {
	api     *server.Server
	hs      *http.Server
	served  chan error
	clients []*serveClient
}

func startServe(ctx context.Context, o Options, in instrument) (session, error) {
	api, err := server.New(server.Config{Pool: servePool, Tracer: in.tracer(), Metrics: in.metrics})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, api.Shutdown(ctx))
	}
	s := &serveSession{api: api, hs: &http.Server{Handler: api.Handler()}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(lis) }()
	for c := 0; c < serveClients; c++ {
		cl, err := newServeClient(ctx, "http://"+lis.Addr().String(), c, o)
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

func (s *serveSession) warmup(context.Context) error { return nil }

func (s *serveSession) callers() []caller {
	out := make([]caller, len(s.clients))
	for i, c := range s.clients {
		out[i] = c.round
	}
	return out
}

// verify re-derives up to three cold results per client — the first, middle
// and last (generation, config) it ran — with RunContext on the client's
// local mirror of its rows.
func (s *serveSession) verify(ctx context.Context) []error {
	var errs []error
	for _, c := range s.clients {
		keys := make([]coldKey, 0, len(c.cold))
		for k := range c.cold {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].gen != keys[j].gen {
				return keys[i].gen < keys[j].gen
			}
			return keys[i].cfg < keys[j].cfg
		})
		if len(keys) == 0 {
			continue
		}
		picked := map[int]bool{}
		for _, i := range []int{0, len(keys) / 2, len(keys) - 1} {
			if !picked[i] {
				picked[i] = true
				errs = append(errs, c.rederive(ctx, keys[i]))
			}
		}
	}
	return errs
}

func (s *serveSession) dataset() *frame.Dataset { return s.clients[0].ds }

func (s *serveSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range s.clients {
		c.hc.CloseIdleConnections()
	}
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.api.Shutdown(ctx))
}

// coldKey names one cold result: the dataset generation it covers and the
// index of its config.
type coldKey struct{ gen, cfg int }

// serveClient owns one dataset. It keeps the rows it uploaded and appended
// as a local mirror, so any cold result can be re-derived locally.
type serveClient struct {
	url    string
	hc     *http.Client
	id     string         // the registered dataset
	ds     *frame.Dataset // the registered rows, integer-coded
	header string         // CSV header: the features, then the err column
	rows   []string       // CSV lines of the registered rows
	errs   []float64
	pool   []string // CSV lines appended appendRows at a time, in order
	pErrs  []float64
	gen    int // appends applied
	rng    *rand.Rand
	cold   map[coldKey]*core.Result
	tamper func(*core.Result)
}

// newServeClient generates client c's dataset and append pool and registers
// the dataset. The rows come from fixed datagen seeds; the seed permutes the
// registered rows and each append batch, and orders the jobs.
func newServeClient(ctx context.Context, url string, c int, o Options) (*serveClient, error) {
	rows := 0
	if o.small {
		rows = 2000
	}
	seed := o.Seed*serveClients + int64(c)
	base := permuted(datagen.Adult(dataSeed+int64(c)), rows, seed)
	pool := datagen.Adult(dataSeed + serveClients + int64(c))
	cl := &serveClient{
		url: url,
		// One connection per server: requests of a client never overlap.
		hc:     &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		ds:     base.ds,
		header: csvHeader(base.ds.Features),
		errs:   base.err,
		rng:    rand.New(rand.NewSource(seed)),
		cold:   make(map[coldKey]*core.Result),
		tamper: o.tamper,
	}
	for i := 0; i < base.ds.NumRows(); i++ {
		cl.rows = append(cl.rows, csvLine(base.ds.X0.Row(i), base.err[i]))
	}
	for i := 0; i < pool.DS.NumRows(); i++ {
		cl.pool = append(cl.pool, csvLine(pool.DS.X0.Row(i), pool.Err[i]))
	}
	cl.pErrs = pool.Err
	for b := 0; b < cl.batches(); b++ {
		lines, errs := cl.pool[b*appendRows:(b+1)*appendRows], cl.pErrs[b*appendRows:(b+1)*appendRows]
		cl.rng.Shuffle(appendRows, func(i, j int) {
			lines[i], lines[j] = lines[j], lines[i]
			errs[i], errs[j] = errs[j], errs[i]
		})
	}
	body, err := json.Marshal(struct {
		Name string `json:"name"`
		Err  string `json:"err"`
		CSV  string `json:"csv"`
	}{fmt.Sprintf("adult-%d", c), "err", cl.header + "\n" + strings.Join(cl.rows, "\n") + "\n"})
	if err != nil {
		return nil, err
	}
	var info server.DatasetInfo
	if err := cl.do(ctx, http.MethodPost, "/v1/datasets", "application/json", body, &info); err != nil {
		return nil, fmt.Errorf("registering dataset: %w", err)
	}
	cl.id = info.ID
	return cl, nil
}

// csvHeader names the features, then the err column.
func csvHeader(feats []frame.Feature) string {
	names := make([]string, 0, len(feats)+1)
	for _, f := range feats {
		names = append(names, f.Name)
	}
	return strings.Join(append(names, "err"), ",")
}

// csvLine renders one row with categorical values ("v" + code), so the
// server recodes them in first-appearance order, plus its error.
func csvLine(row []int, e float64) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteByte('v')
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	b.WriteString(strconv.FormatFloat(e, 'g', -1, 64))
	return b.String()
}

// batches is the number of append batches in the pool; appends cycle through
// them.
func (c *serveClient) batches() int { return len(c.pool) / appendRows }

// round runs eight jobs — every config once in seeded order, with two of
// them repeated later in the round, which must be cache hits — then one
// append, which makes the next round's jobs cold. Two hits per round keep the
// median op inside one latency class: hits and appends are 3 of 9 ops, the
// fastest config pair the next 2.
func (c *serveClient) round(ctx context.Context) []sample {
	jobs := c.rng.Perm(len(serveConfigs))
	for k := 0; k < hitsPerRound; k++ {
		first := c.rng.Intn(len(jobs))
		jobs = slices.Insert(jobs, first+1+c.rng.Intn(len(jobs)-first), jobs[first])
	}
	out := make([]sample, 0, len(jobs)+1)
	seen := make([]bool, len(serveConfigs))
	for _, cfg := range jobs {
		out = append(out, c.job(ctx, cfg, seen[cfg]))
		seen[cfg] = true
	}
	return append(out, c.appendBatch(ctx))
}

// job submits one job, waits for its terminal SSE event, fetches its result
// and checks it: a hit must carry the cached flag and equal the cold result
// of the same (generation, config).
func (c *serveClient) job(ctx context.Context, cfg int, wantHit bool) sample {
	s := sample{class: "cold"}
	if wantHit {
		s.class = "hit"
	}
	spec, err := json.Marshal(server.JobSpec{SpecVersion: server.SpecVersion, Dataset: c.id, Config: serveConfigs[cfg]})
	if err != nil {
		s.err = err
		return s
	}
	t := time.Now()
	var info server.JobInfo
	err = c.do(ctx, http.MethodPost, "/v1/jobs", "application/json", spec, &info)
	s.submit = time.Since(t)
	if err == nil {
		err = c.waitDone(ctx, info.ID)
	}
	if err == nil {
		err = c.do(ctx, http.MethodGet, "/v1/jobs/"+info.ID, "", nil, &info)
	}
	s.dur = time.Since(t)
	if err != nil {
		s.err = err
		return s
	}
	if info.Cached != wantHit || info.Generation != c.gen {
		s.err = fmt.Errorf("job %s: cached=%v at generation %d, want cached=%v at %d", info.ID, info.Cached, info.Generation, wantHit, c.gen)
		return s
	}
	var res core.Result
	if err := json.Unmarshal(info.Result, &res); err != nil {
		s.err = fmt.Errorf("job %s: decoding result: %w", info.ID, err)
		return s
	}
	if c.tamper != nil {
		c.tamper(&res)
	}
	key := coldKey{gen: c.gen, cfg: cfg}
	if !wantHit {
		c.cold[key] = &res
		s.res = &res
		return s
	}
	if ref := c.cold[key]; ref == nil {
		s.err = fmt.Errorf("job %s: cache hit without a cold result to compare", info.ID)
	} else {
		s.err = sameResult(&res, ref)
	}
	return s
}

// waitDone follows a job's SSE stream to its terminal status event.
func (c *serveClient) waitDone(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events of job %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	status := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: status" {
			status = true
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !status || !ok {
			continue
		}
		var ev struct{ Status, Error string }
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("job %s: decoding status event: %w", id, err)
		}
		// Drain the stream so the connection is reused.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if ev.Status != "done" {
			return fmt.Errorf("job %s ended %s: %s", id, ev.Status, ev.Error)
		}
		return nil
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("job %s: reading events: %w", id, err)
	}
	return fmt.Errorf("job %s: event stream ended without a status", id)
}

// appendBatch appends the next pool batch to the client's dataset.
func (c *serveClient) appendBatch(ctx context.Context) sample {
	lines := c.batch(c.gen)
	body := c.header + "\n" + strings.Join(lines, "\n") + "\n"
	t := time.Now()
	var info server.AppendInfo
	err := c.do(ctx, http.MethodPost, "/v1/datasets/"+c.id+"/rows", "text/csv", []byte(body), &info)
	s := sample{class: "append", dur: time.Since(t), err: err}
	if err == nil && info.Generation != c.gen+1 {
		s.err = fmt.Errorf("append to %s reached generation %d, want %d", c.id, info.Generation, c.gen+1)
	}
	if s.err == nil {
		c.gen++
	}
	return s
}

// batch returns the CSV lines of the batch appended as generation g+1.
func (c *serveClient) batch(g int) []string {
	b := g % c.batches()
	return c.pool[b*appendRows : (b+1)*appendRows]
}

// rederive recomputes one cold result with RunContext on the local mirror of
// the dataset at that generation and compares.
func (c *serveClient) rederive(ctx context.Context, key coldKey) error {
	var csv strings.Builder
	csv.WriteString(c.header + "\n" + strings.Join(c.rows, "\n") + "\n")
	errs := append([]float64(nil), c.errs...)
	for g := 0; g < key.gen; g++ {
		csv.WriteString(strings.Join(c.batch(g), "\n") + "\n")
		b := g % c.batches()
		errs = append(errs, c.pErrs[b*appendRows:(b+1)*appendRows]...)
	}
	ds, err := sliceline.DatasetFromCSV(strings.NewReader(csv.String()), "", 10, "err")
	if err != nil {
		return fmt.Errorf("re-deriving generation %d: %w", key.gen, err)
	}
	jc := serveConfigs[key.cfg]
	want, err := sliceline.RunContext(ctx, ds, errs, sliceline.Config{K: jc.K, Alpha: jc.Alpha})
	if err != nil {
		return fmt.Errorf("re-deriving generation %d: %w", key.gen, err)
	}
	if err := sameResult(c.cold[key], want); err != nil {
		return fmt.Errorf("generation %d, config %d: %w", key.gen, key.cfg, err)
	}
	return nil
}

// do sends one request and decodes a 2xx JSON answer into out.
func (c *serveClient) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading answer: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
