package perf

import (
	"context"
	"errors"
	"net"
	"sync"

	"sliceline"
	"sliceline/internal/dist"
)

// distWorkers is the fleet size of dist-tcp-census-l2.
const distWorkers = 2

// distSession is lib-census-l2 evaluated on a Dist-PFor cluster of in-process
// TCP workers. The cluster is dialed once at set-up; every op re-ships the
// partitions in the evaluator's Setup.
type distSession struct {
	*libSession
	servers []*dist.Server
	served  sync.WaitGroup
	cluster *dist.Cluster
}

func startDist(_ context.Context, o Options, in instrument) (session, error) {
	s := &distSession{libSession: newLibSession(censusInput(o), censusConfig, o, in)}
	workers := make([]dist.Worker, 0, distWorkers)
	fail := func(err error) (session, error) {
		for _, w := range workers {
			w.Close()
		}
		return nil, errors.Join(err, s.close())
	}
	for i := 0; i < distWorkers; i++ {
		w, err := s.startWorker(in)
		if err != nil {
			return fail(err)
		}
		workers = append(workers, w)
	}
	cluster, err := dist.NewClusterOpts(workers, dist.Options{Metrics: in.metrics})
	if err != nil {
		return fail(err)
	}
	s.cluster = cluster
	s.opts = append(s.opts, sliceline.WithEvaluator(cluster))
	return s, nil
}

// startWorker serves one worker on a loopback port and dials it.
func (s *distSession) startWorker(in instrument) (dist.Worker, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := lis.Addr().String()
	if in.bytes != nil {
		lis = countingListener{Listener: lis, c: in.bytes}
	}
	srv, err := dist.NewServer(lis)
	if err != nil {
		lis.Close()
		return nil, err
	}
	s.servers = append(s.servers, srv)
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		// A worker whose accept loop fails shows up as failed ops.
		_ = srv.Serve()
	}()
	return dist.Dial(addr)
}

// warmup computes the local reference, then runs one distributed op that
// must already match it: any fleet size answers like one member.
func (s *distSession) warmup(ctx context.Context) (err error) {
	if s.ref, err = sliceline.RunContext(ctx, s.in.ds, s.in.err, s.cfg); err != nil {
		return err
	}
	res, err := sliceline.RunContext(ctx, s.in.ds, s.in.err, s.cfg, s.opts...)
	if err != nil {
		return err
	}
	return sameResult(res, s.ref)
}

func (s *distSession) close() error {
	var err error
	if s.cluster != nil {
		err = s.cluster.Close()
	}
	for _, srv := range s.servers {
		srv.Stop()
	}
	s.served.Wait()
	return err
}
