// Command slworker runs a SliceLine evaluation worker: it serves row
// partitions shipped by a driver (dist.Cluster with dist.Dial) and evaluates
// broadcast slice candidates against them over gob-encoded RPC. Start one
// per node, then point the driver at the addresses:
//
//	slworker -addr :7071 &
//	slworker -addr :7072 &
//	sliceline -dataset adult -workers localhost:7071,localhost:7072
//
// With -join, the worker instead announces itself to a driver's membership
// endpoint (slserve -listen-workers) and keeps its lease renewed, so the
// fleet self-forms and the driver needs no -workers list:
//
//	slworker -addr :7071 -join http://driver:7070
//
// On SIGINT or SIGTERM the worker drains gracefully: it stops accepting
// connections, finishes the evaluations already in flight (so no driver is
// left holding a torn half-written reply), then exits 0. If the drain
// exceeds -drain-timeout, remaining connections are cut and the worker
// exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sliceline/internal/dist"
	"sliceline/internal/membership"
	"sliceline/internal/obs"
	"sliceline/internal/version"
)

func main() {
	addr := flag.String("addr", ":7071", "listen address (host:port)")
	drainTimeout := flag.Duration("drain-timeout", dist.DefaultDrainTimeout, "max wait for in-flight calls on SIGTERM/SIGINT")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/vars and /debug/pprof on this address")
	join := flag.String("join", "", "driver membership URL (e.g. http://driver:7070): announce this worker and keep the lease renewed")
	id := flag.String("id", "", "stable member identity for -join (default: the advertised address)")
	advertise := flag.String("advertise", "", "address the driver should dial for -join (default: derived from -addr)")
	maxParts := flag.Int("max-parts", 0, "max partitions held before LRU eviction (0 = unbounded)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("slworker", version.String())
		return
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slworker:", err)
		os.Exit(1)
	}
	opts := dist.ServerOptions{MaxPartitions: *maxParts}
	if *metricsAddr != "" {
		opts.Metrics = obs.NewRegistry()
		msrv, maddr, err := obs.Serve(*metricsAddr, opts.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slworker:", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("slworker: serving metrics and pprof on http://%s/\n", maddr)
	}
	srv, err := dist.NewServerOpts(lis, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slworker:", err)
		os.Exit(1)
	}
	fmt.Printf("slworker: serving on %s\n", lis.Addr())

	joinCtx, stopJoin := context.WithCancel(context.Background())
	defer stopJoin()
	if *join != "" {
		self, err := selfMember(*id, *advertise, lis.Addr())
		if err != nil {
			fmt.Fprintln(os.Stderr, "slworker:", err)
			os.Exit(2)
		}
		ann := membership.NewAnnouncer(membership.AnnouncerConfig{
			Self:      self,
			Transport: membership.HTTPTransport(*join, nil),
			OnStateChange: func(connected bool) {
				if connected {
					fmt.Fprintf(os.Stderr, "slworker: joined fleet at %s as %s\n", *join, self.ID)
				} else {
					fmt.Fprintf(os.Stderr, "slworker: lost driver at %s, re-announcing with backoff\n", *join)
				}
			},
		})
		go ann.Run(joinCtx)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(os.Stderr, "slworker:", err)
			os.Exit(1)
		}
		return
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "slworker: %v, draining (max %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "slworker: drain timed out, cutting connections")
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "slworker: drained")
		stopJoin() // leave the lease to expire; the driver rebalances off us
	}
}

// selfMember assembles the identity this worker announces. The incarnation is
// the process start time, so a restart (new process, same ID) supersedes the
// old registration and the driver knows not to trust stale warm state.
func selfMember(id, advertise string, lis net.Addr) (membership.Member, error) {
	if advertise == "" {
		host, port, err := net.SplitHostPort(lis.String())
		if err != nil {
			return membership.Member{}, fmt.Errorf("deriving advertise address from %s: %w", lis, err)
		}
		if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
			// Listening on all interfaces: advertise the hostname, which is
			// what other nodes can actually dial.
			if host, err = os.Hostname(); err != nil {
				return membership.Member{}, fmt.Errorf("resolving hostname for advertise address: %w", err)
			}
		}
		advertise = net.JoinHostPort(host, port)
	}
	if id == "" {
		id = advertise
	}
	return membership.Member{ID: id, Addr: advertise, Incarnation: uint64(time.Now().UnixNano())}, nil
}
