package perf

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/frame"
	"sliceline/internal/obs"
)

// Workload names, as performance claims cite them.
const (
	LibCensus  = "lib-census-l2"
	LibCovtype = "lib-covtype-l3"
	DistCensus = "dist-tcp-census-l2"
	ServeMixed = "serve-mixed"
)

// Workload is one benchmark workload.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists.
	Why string

	start func(ctx context.Context, o Options, in instrument) (session, error)
	// rate is the rounds per caller per second the defining machine ran
	// (2-vCPU Intel Xeon, 2.1 GHz). An untraced run times Seconds × rate
	// rounds per caller, so both commits of a comparison do the same work.
	rate float64
	// traceRounds is the fixed number of rounds per caller in each phase of
	// a traced run.
	traceRounds int
	// encodes reports that every op one-hot encodes its dataset, as a library
	// call does; a server job reuses the encoding made at registration.
	encodes bool
}

var workloads = []Workload{
	{Name: LibCensus, start: startLibCensus, rate: 7, traceRounds: 16, encodes: true,
		Why: "Most time is in the eval kernel; a multicore or bitset-kernel change shows here and barely moves lib-covtype-l3."},
	{Name: LibCovtype, start: startLibCovtype, rate: 0.7, traceRounds: 3, encodes: true,
		Why: "Most time is candidate generation, pruning and top-K at ~9.6M allocs/op; isolates an allocation diet and barely exercises the kernel."},
	{Name: DistCensus, start: startDist, rate: 5, traceRounds: 12, encodes: true,
		Why: "The lib-census-l2 work through Dist-PFor over loopback TCP; RPC, gob and partition shipping show only here."},
	{Name: ServeMixed, start: startServe, rate: 1, traceRounds: 3,
		Why: "The only workload with HTTP, admission, the result cache and registry generations: 2 clients mixing cold jobs, cache hits and appends."},
}

// Workloads returns the benchmark's workloads in their canonical order.
func Workloads() []Workload { return append([]Workload(nil), workloads...) }

func lookup(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// defaultSetups is how often an untraced run sets up; setup_s is the median.
const defaultSetups = 5

// Options configures one run.
type Options struct {
	// Seed permutes the generated inputs; equal seeds give equal inputs.
	Seed int64
	// Seconds sizes the timed phase of an untraced run: Seconds × the
	// workload's rate rounds per caller, about Seconds long on the machine
	// the rates were taken on.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics.
	Trace bool
	// SpanDir, when set, receives the traced run's span dump as
	// <workload>.json.
	SpanDir string

	// The smoke test shrinks runs with these.
	small  bool               // reduced rows
	rounds int                // fixed rounds per caller; 0 selects the default
	setups int                // set-up repetitions; 0 selects defaultSetups
	tamper func(*core.Result) // corrupts every result under test
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the outcome of one run. Its JSON form is the result line
// cmd/slperf prints last; Info holds the facts printed before it.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	Info Info `json:"-"`
}

// Info records what a reader needs to reproduce and interpret a run.
type Info struct {
	Workload   string
	Seed       int64
	Trace      bool
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	// Ops is the number of timed ops (in a traced run, of the traced phase).
	Ops    int
	Setups int
	// Notes carries per-class latencies and failure messages.
	Notes []string
}

func (r *Report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perf: metric %s is %v", name, v))
	}
	r.Metrics[name] = Metric{Value: v, Unit: unitOf(name)}
}

func (r *Report) note(format string, args ...any) {
	r.Info.Notes = append(r.Info.Notes, fmt.Sprintf(format, args...))
}

// maxFailureNotes bounds the failure messages a report carries.
const maxFailureNotes = 5

// count tallies attempted work and its failures; a *mismatch also marks the
// run incorrect.
func (r *Report) count(errs ...error) {
	for _, err := range errs {
		r.Attempted++
		if err == nil {
			continue
		}
		r.Failed++
		var m *mismatch
		if errors.As(err, &m) {
			r.Correct = false
		}
		if r.Failed <= maxFailureNotes {
			r.note("failed: %v", err)
		}
	}
}

// session is one brought-up instance of a workload.
type session interface {
	// warmup runs the untimed op that precedes the timed phase and fixes
	// the reference results.
	warmup(ctx context.Context) error
	// callers returns the closed-loop callers; each call runs one round.
	callers() []caller
	// verify runs the checks that happen after the timed phase; one error
	// per check, nil when it passed.
	verify(ctx context.Context) []error
	// dataset is the dataset frame.encode_ms encodes.
	dataset() *frame.Dataset
	close() error
}

// caller runs one round of requests and returns one sample per request.
type caller func(ctx context.Context) []sample

// sample is one timed request.
type sample struct {
	class  string        // "op"; in serve-mixed "cold", "hit" or "append"
	dur    time.Duration // latency as the caller saw it
	submit time.Duration // serve-mixed jobs: the POST /v1/jobs round trip
	res    *core.Result  // the result of a fresh enumeration, else nil
	err    error         // a failure; a *mismatch is a wrong output
}

// instrument is what a traced session reports into; the zero value is an
// untraced session.
type instrument struct {
	spans   *obs.JSONTracer
	metrics *obs.Registry
	bytes   *byteCounter
}

// tracer returns the span collector as an interface value that is nil when
// tracing is off, never a typed nil.
func (in instrument) tracer() obs.Tracer {
	if in.spans == nil {
		return nil
	}
	return in.spans
}

// Run executes one workload and reports its metrics. An error means the
// workload could not be brought up or warmed up; failed or wrong ops are
// counted in the report instead.
func Run(ctx context.Context, name string, o Options) (*Report, error) {
	w, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("perf: unknown workload %q", name)
	}
	rep := &Report{
		Correct: true,
		Metrics: make(map[string]Metric),
		Info: Info{
			Workload:   w.Name,
			Seed:       o.Seed,
			Trace:      o.Trace,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
	}
	var err error
	if o.Trace {
		err = runTraced(ctx, w, o, rep)
	} else {
		err = runUntraced(ctx, w, o, rep)
	}
	if err != nil {
		return nil, fmt.Errorf("perf: %s: %w", w.Name, err)
	}
	return rep, nil
}

// runUntraced measures the end-to-end metrics: set up several times, warm
// up, time o.Seconds × w.rate rounds per caller, verify.
func runUntraced(ctx context.Context, w Workload, o Options, rep *Report) error {
	rounds := o.rounds
	if rounds <= 0 {
		rounds = max(1, int(math.Round(o.Seconds*w.rate)))
	}
	n := o.setups
	if n <= 0 {
		n = defaultSetups
	}
	var s session
	setup := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		t := time.Now()
		var err error
		if s, err = w.start(ctx, o, instrument{}); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	ph, err := timedPhase(ctx, s, rounds, rep)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	d := ph.durations()
	rep.Info.Ops, rep.Info.Setups = len(d), n
	rep.set("setup_s", median(setup))
	rep.set("op_p50_ms", ms(percentile(d, 0.5)))
	rep.set("op_p90_ms", ms(percentile(d, 0.9)))
	rep.set("ops_per_s", float64(len(d))/ph.elapsed.Seconds())
	rep.set("allocs_per_op", float64(ph.mallocs)/float64(len(d)))
	rep.set("peak_rss_mb", rss)
	return nil
}

// timedPhase warms s up, times rounds rounds per caller and verifies.
func timedPhase(ctx context.Context, s session, rounds int, rep *Report) (phase, error) {
	if err := s.warmup(ctx); err != nil {
		return phase{}, fmt.Errorf("warm-up: %w", err)
	}
	ph := runPhase(ctx, s.callers(), rounds)
	ph.report(rep, "timed")
	rep.count(s.verify(ctx)...)
	return ph, nil
}

// phase is one timed run of a session's callers.
type phase struct {
	samples  []sample
	elapsed  time.Duration
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
}

// runPhase drives the callers in closed loops — each starts its next round
// only after the previous one returned — for rounds rounds each.
func runPhase(ctx context.Context, callers []caller, rounds int) phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	out := make([][]sample, len(callers))
	var wg sync.WaitGroup
	for i, call := range callers {
		wg.Add(1)
		go func(i int, call caller) {
			defer wg.Done()
			for r := 0; r < rounds && ctx.Err() == nil; r++ {
				out[i] = append(out[i], call(ctx)...)
			}
		}(i, call)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start)}
	runtime.ReadMemStats(&m1)
	for _, s := range out {
		ph.samples = append(ph.samples, s...)
	}
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.gcCycles = m1.NumGC - m0.NumGC
	ph.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return ph
}

// report counts the phase's samples and notes the per-class latencies under
// the phase's label.
func (ph phase) report(rep *Report, label string) {
	byClass := make(map[string][]time.Duration)
	for _, s := range ph.samples {
		rep.count(s.err)
		byClass[s.class] = append(byClass[s.class], s.dur)
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		d := byClass[c]
		rep.note("%s %s: %d ops, p50 %.3f ms, p90 %.3f ms", label, c, len(d), ms(percentile(d, 0.5)), ms(percentile(d, 0.9)))
	}
}

func (ph phase) durations() []time.Duration {
	d := make([]time.Duration, len(ph.samples))
	for i, s := range ph.samples {
		d[i] = s.dur
	}
	return d
}

// percentile returns the nearest-rank p-quantile of d (0 for no samples).
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSS reads the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, errors.New("reading peak RSS: no VmHWM in /proc/self/status")
}

// writeSpans dumps the traced phase's spans to dir/<workload>.json.
func writeSpans(dir, workload string, tr *obs.JSONTracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".json"))
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
