// Distributed: SliceLine with row-partitioned distributed slice evaluation.
// Worker servers are started on loopback TCP (in production they would run
// on separate nodes via cmd/slworker); the driver ships each worker a
// partition of the one-hot matrix, broadcasts the candidate slices of every
// lattice level, and aggregates the partial statistics — the paper's
// Dist-PFor strategy with real serialization over the wire.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"sliceline"
	"sliceline/datasets"
	"sliceline/internal/dist"
)

func main() {
	ctx := context.Background()
	g := datasets.USCensus(8000, 1)
	fmt.Printf("dataset: %d rows, %d features, %d one-hot columns\n",
		g.DS.NumRows(), g.DS.NumFeatures(), g.DS.OneHotWidth())

	// Start four workers on ephemeral loopback ports.
	const nWorkers = 4
	var listeners []net.Listener
	var addrs []string
	for i := 0; i < nWorkers; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners = append(listeners, lis)
		go dist.Serve(lis) //nolint:errcheck // lifetime bound to listener
		addrs = append(addrs, lis.Addr().String())
		fmt.Printf("worker %d listening on %s\n", i, lis.Addr())
	}
	defer func() {
		for _, lis := range listeners {
			lis.Close()
		}
	}()

	cluster, err := dist.DialCluster(addrs, dist.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	cfg := sliceline.Config{K: 5, Alpha: 0.95, MaxLevel: 3, Evaluator: cluster}
	start := time.Now()
	res, err := sliceline.RunContext(ctx, g.DS, g.Err, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistributed run over %d workers: %d candidates in %v\n",
		nWorkers, res.TotalCandidates(), time.Since(start).Round(time.Millisecond))

	// Cross-check against the local evaluator: distribution must not change
	// results.
	local, err := sliceline.RunContext(ctx, g.DS, g.Err, sliceline.Config{K: 5, Alpha: 0.95, MaxLevel: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop slices (distributed | local score):")
	for i := range res.TopK {
		fmt.Printf("#%d %s | %.4f\n", i+1, res.TopK[i], local.TopK[i].Score)
	}
}
