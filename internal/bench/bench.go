// Package bench is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation (Section 5), each printing the
// same rows/series the paper reports. Experiments run in quick mode
// (reduced scales, suitable for CI) or full mode (the defaults documented in
// DESIGN.md). EXPERIMENTS.md records paper-vs-measured for every entry.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/obs"
)

// Options controls experiment execution.
type Options struct {
	Quick bool  // reduced dataset scales and sweeps
	Seed  int64 // dataset generation seed (0 = 1)

	// Tracer, when non-nil, receives spans from every enumeration an
	// experiment runs, so a harness invocation can dump per-level timing
	// breakdowns next to the printed tables (slbench -span-out).
	Tracer obs.Tracer
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// config stamps the harness observability onto one experiment run's Config.
func (o Options) config(c core.Config) core.Config {
	c.Tracer = o.Tracer
	return c
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Paper string // which table/figure of the paper this regenerates
	Run   func(w io.Writer, opt Options) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments in registration order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, writing a header per experiment. With
// opt.Tracer set, each experiment additionally gets a bench.<id> root span so
// the span dump groups enumerations by experiment.
func RunAll(w io.Writer, opt Options) error {
	for _, e := range registry {
		fmt.Fprintf(w, "\n=== %s — %s (%s) ===\n", e.ID, e.Title, e.Paper)
		start := time.Now()
		if err := RunOne(w, e, opt); err != nil {
			return err
		}
		fmt.Fprintf(w, "[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// RunOne executes a single experiment under a bench.<id> span.
func RunOne(w io.Writer, e Experiment, opt Options) error {
	sp := obs.Start(opt.Tracer, "bench."+e.ID)
	err := e.Run(w, opt)
	sp.End()
	if err != nil {
		return fmt.Errorf("bench: experiment %s: %w", e.ID, err)
	}
	return nil
}

// table returns a tabwriter for aligned experiment output.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}
