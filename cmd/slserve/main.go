// Command slserve runs the multi-tenant SliceLine HTTP service: clients
// register CSV datasets once (one-hot encoded at upload, content-addressed
// by the core data signature) and submit asynchronous slice-finding jobs
// against them. Jobs run on a bounded worker pool with admission control
// (full queue → HTTP 429), identical resubmissions are answered from the
// result cache, and per-level progress streams over SSE. Datasets registered
// with an err column are streaming: POST /v1/datasets/{id}/rows appends rows
// (advancing the dataset's generation), monitor-mode jobs stay resident
// (capped by -max-monitors) and re-emit the exact maintained top-K over SSE
// after every append, and windowed jobs score only the most recent rows. See
// README.md, "HTTP service", for a curl walkthrough, and API.md for the wire
// contract.
//
//	slserve -addr :8080
//	slserve -addr :8080 -journal /var/lib/slserve -workers localhost:7071,localhost:7072
//	slserve -addr :8080 -listen-workers :7070
//
// With -listen-workers, the service accepts dynamic fleet membership instead
// of a static -workers list: slworker processes started with -join announce
// themselves there, leases expire silent workers, and distributed jobs place
// partitions on whoever is alive — rebalancing mid-run as members join,
// crash, or flap, and degrading to driver-local evaluation if the fleet
// empties. GET /v1/cluster on the main address shows the member table.
//
// With -journal, datasets, job records, and per-level enumeration
// checkpoints persist across restarts: completed jobs are re-served and
// interrupted ones resume from their last finished lattice level.
//
// On SIGINT or SIGTERM the service drains gracefully: the listener stops
// accepting, queued and running jobs finish, then the process exits 0. If
// the drain exceeds -drain-timeout, remaining jobs are cancelled and the
// process exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"sliceline/internal/dist"
	"sliceline/internal/membership"
	"sliceline/internal/obs"
	"sliceline/internal/server"
	"sliceline/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("slserve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address (host:port)")
		pool         = fs.Int("pool", server.DefaultPool, "concurrent job executors")
		queue        = fs.Int("queue", server.DefaultQueueDepth, "max queued jobs before submissions get HTTP 429")
		maxMonitors  = fs.Int("max-monitors", server.DefaultMaxMonitors, "max resident monitor jobs before submissions get HTTP 429")
		jobTimeout   = fs.Duration("job-timeout", 0, "default per-job execution deadline (0 = none; a spec's timeout_ms overrides)")
		journalDir   = fs.String("journal", "", "persist datasets, jobs and checkpoints in this directory for restart/resume")
		workers      = fs.String("workers", "", "comma-separated worker addresses for distributed evaluation")
		listenWork   = fs.String("listen-workers", "", "accept slworker -join announces on this address (dynamic fleet membership)")
		lease        = fs.Duration("lease", membership.DefaultLeaseInterval, "membership lease renewal interval granted to workers")
		leaseStrikes = fs.Int("lease-strikes", membership.DefaultLeaseStrikes, "missed lease scans before a silent worker is expelled (default confirmed by the committed slsim sweep)")
		callTimeout  = fs.Duration("call-timeout", dist.DefaultCallTimeout, "per-RPC deadline for distributed workers (0 = none)")
		hedgeAfter   = fs.Duration("hedge-after", 0, "speculatively re-execute a partition stuck longer than this fixed delay (0 = adaptive via -hedge-mult)")
		hedgeMult    = fs.Float64("hedge-mult", dist.DefaultHedgeMultiplier, "adaptive hedging: straggler threshold as a multiple of the level median (0 = off; default tuned by the committed slsim sweep)")
		heartbeat    = fs.Duration("heartbeat", dist.DefaultHeartbeatInterval, "probe worker liveness at this interval between levels (0 = off)")
		drainTimeout = fs.Duration("drain-timeout", dist.DefaultDrainTimeout, "max wait for queued and running jobs on SIGTERM/SIGINT")
		tracePath    = fs.String("trace", "", "write a JSON span dump (one tree per job) to this file on exit")
		showVersion  = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Println("slserve", version.String())
		return 0
	}
	if *workers != "" && *listenWork != "" {
		fmt.Fprintln(os.Stderr, "slserve: -workers and -listen-workers are mutually exclusive: the fleet is a fixed list or announced members, not both")
		return 2
	}

	cfg := server.Config{
		Pool:        *pool,
		QueueDepth:  *queue,
		MaxMonitors: *maxMonitors,
		JobTimeout:  *jobTimeout,
		JournalDir:  *journalDir,
		Metrics:     obs.NewRegistry(),
		Dist: dist.Options{
			CallTimeout:       *callTimeout,
			HedgeDelay:        *hedgeAfter,
			HedgeMultiplier:   *hedgeMult,
			HeartbeatInterval: *heartbeat,
		},
	}
	if *workers != "" {
		list, err := dist.ParseWorkerList(*workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slserve:", err)
			return 2
		}
		cfg.DistWorkers = list
	}
	if *listenWork != "" {
		reg := membership.NewRegistrar(membership.RegistrarConfig{
			LeaseInterval: *lease,
			Strikes:       *leaseStrikes,
			Metrics:       cfg.Metrics,
		})
		reg.Start()
		defer reg.Close()
		msrv, maddr, err := serveMembership(*listenWork, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slserve:", err)
			return 1
		}
		defer msrv.Close()
		cfg.Membership = reg
		fmt.Printf("slserve: accepting worker announces on http://%s%s\n", maddr, membership.AnnouncePath)
	}
	var tracer *obs.JSONTracer
	if *tracePath != "" {
		tracer = obs.NewJSONTracer()
		cfg.Tracer = tracer
		defer func() {
			if err := writeTrace(*tracePath, tracer); err != nil {
				fmt.Fprintln(os.Stderr, "slserve: writing trace:", err)
			}
		}()
	}

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slserve:", err)
		return 1
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slserve:", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Printf("slserve: listening on %s\n", lis.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(lis) }()

	select {
	case err := <-serveErr:
		// Serve only returns on listener failure (Shutdown is signal-driven
		// below), so any return here is an error.
		fmt.Fprintln(os.Stderr, "slserve:", err)
		return 1
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "slserve: %v, draining (max %v)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop the HTTP front end first (in-flight requests, including open SSE
	// streams, are given the same deadline), then drain the job pool.
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "slserve: http drain:", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "slserve: drain timed out, cancelled remaining jobs")
		return 1
	}
	fmt.Fprintln(os.Stderr, "slserve: drained")
	return 0
}

// serveMembership mounts the announce endpoint on its own listener, so the
// worker-facing surface can sit on an internal interface while the client
// API faces out.
func serveMembership(addr string, reg *membership.Registrar) (*http.Server, string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: membership.Handler(reg)}
	go func() { _ = srv.Serve(lis) }()
	return srv, lis.Addr().String(), nil
}

func writeTrace(path string, tr *obs.JSONTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
