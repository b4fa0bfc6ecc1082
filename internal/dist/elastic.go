package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sliceline/internal/membership"
	"sliceline/internal/obs"
)

// DefaultElasticPartitions is a membership fleet's partition count. A fixed,
// fleet-size-independent split is what keeps the deterministic
// partition-order merge — and therefore the result bits — stable while the
// fleet churns.
const DefaultElasticPartitions = 8

// Dialer turns a fleet member into a Worker connection. The production
// implementation is MemberDialer (TCP gob RPC); tests inject in-process
// workers.
type Dialer func(ctx context.Context, m membership.Member) (Worker, error)

// MemberDialer returns a Dialer connecting to members' advertised addresses
// over the standard RemoteWorker transport.
func MemberDialer(opts DialOptions) Dialer {
	return func(_ context.Context, m membership.Member) (Worker, error) {
		return DialOpts(m.Addr, opts)
	}
}

// memberSlot records which worker slot a fleet member occupies and the
// member as the last applied view named it. The member is live exactly when
// its slot is in the view.
type memberSlot struct {
	member membership.Member
	wi     int
}

// NewElasticCluster returns a Dist-PFor evaluator over a membership fleet:
// instead of a fixed worker list it consumes membership views (from a
// Registrar via Follow, or directly via ApplyView) and keeps its worker
// slots, liveness and partition placement in sync with them. The fleet
// starts empty.
//
// Placement goes through a consistent-hash ring over the live member IDs, so
//
//   - a member that flaps and rejoins with the same incarnation is handed
//     back exactly the partitions it already holds (warm re-attach, no data
//     motion),
//   - a joining member takes over only the ring arcs it owns (bounded
//     re-shipping), and
//   - a departing member's partitions move to their next ring owners while
//     evaluations already in flight fail over mid-run.
//
// The partition count is DefaultElasticPartitions at every fleet size, and a
// fleet that empties degrades to driver-local evaluation with the kernel a
// worker would use, so results are bit-identical at every fleet size,
// including zero. Set Options.PlacementSeed to make partition keys
// content-addressed across jobs.
func NewElasticCluster(dial Dialer, opts Options) (*Cluster, error) {
	if dial == nil {
		return nil, errors.New("dist: elastic cluster needs a dialer")
	}
	return &Cluster{
		opts:    opts.withDefaults(),
		ob:      newDistObs(opts.Metrics),
		nParts:  DefaultElasticPartitions,
		degrade: true,
		dial:    dial,
		members: make(map[string]*memberSlot),
		ring:    membership.BuildRing(nil, membership.DefaultVnodes),
	}, nil
}

// LiveMembers returns the IDs of the members in the current view, sorted.
// A fixed fleet has none.
func (c *Cluster) LiveMembers() []string {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return c.liveIDsLocked()
}

func (c *Cluster) liveIDsLocked() []string {
	c.mu.Lock()
	ids := make([]string, 0, len(c.members))
	for id, s := range c.members {
		if c.inView[s.wi] {
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// ApplyView reconciles a membership fleet with one view: new members are
// dialed and added, departed members are marked dead (in-flight evaluations
// on them fail over mid-run), rejoining members are revived — warm when
// their incarnation is unchanged — and partition placement is rebalanced
// onto the new ring. Stale views (older than one already applied) are
// ignored. It never fails the cluster: a member that cannot be dialed is
// simply not added, and Follow retries on its next tick.
//
// On a fixed fleet ApplyView changes nothing: the worker list is the whole
// fleet.
func (c *Cluster) ApplyView(ctx context.Context, v membership.View) {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	if c.dial == nil || c.closed || (v.Version != 0 && v.Version < c.version) {
		return
	}
	c.version = v.Version

	inView := make(map[string]membership.Member, len(v.Members))
	for _, m := range v.Members {
		inView[m.ID] = m
	}
	// Departures first, so their slots are dead before placement reconverges.
	for id, s := range c.members {
		if _, ok := inView[id]; !ok && c.leave(s.wi) {
			c.ob.leaves.Inc()
		}
	}
	for id, m := range inView {
		s := c.members[id]
		switch {
		case s == nil:
			w, err := c.dial(ctx, m)
			if err != nil {
				continue // not reachable yet; Follow's next tick retries
			}
			c.members[id] = &memberSlot{member: m, wi: c.addSlot(w, c.queryWarm(ctx, w))}
			c.ob.joins.Inc()
		case !c.inViewAt(s.wi) || s.member != m:
			if m.Addr != s.member.Addr {
				// Re-homed: the old slot's connection dials the old address.
				// Retire it and dial the new home into a fresh slot.
				c.leave(s.wi)
				w, err := c.dial(ctx, m)
				if err != nil {
					continue
				}
				s.wi = c.addSlot(w, c.queryWarm(ctx, w))
			} else {
				// An unchanged incarnation means the process never died — its
				// partitions are still loaded and re-attach warm. A higher one
				// is a restarted, amnesiac process; asking it (queryWarm)
				// returns the truth either way.
				w, _ := c.slot(s.wi)
				c.rejoin(s.wi, c.queryWarm(ctx, w))
			}
			s.member = m
			c.ob.joins.Inc()
		}
	}
	ids := c.liveIDsLocked()
	c.ring = membership.BuildRing(ids, membership.DefaultVnodes)
	c.ob.members.Set(float64(len(ids)))
	c.rebalanceLocked(ctx)
}

func (c *Cluster) inViewAt(wi int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inView[wi]
}

// leave takes slot wi out of the view and marks it dead. It reports whether
// the slot was in the view.
func (c *Cluster) leave(wi int) bool {
	c.mu.Lock()
	was := c.inView[wi]
	c.inView[wi] = false
	c.mu.Unlock()
	if was {
		c.markDead(wi)
	}
	return was
}

// rejoin puts slot wi back in the view, live, holding the given keys.
func (c *Cluster) rejoin(wi int, held map[int]bool) {
	c.mu.Lock()
	was := c.alive[wi]
	c.inView[wi] = true
	c.alive[wi] = true
	c.strikes[wi] = 0
	c.held[wi] = held
	c.mu.Unlock()
	if !was {
		c.ob.resurrections.Inc()
		c.decide(Decision{Kind: DecideResurrect, Part: -1, Worker: wi, Target: -1})
	}
}

// queryWarm asks a worker which partition keys it holds, bounded by the
// heartbeat timeout. Workers without the PartitionLister capability (or
// failing the call) report cold — the only cost is a re-ship.
func (c *Cluster) queryWarm(ctx context.Context, w Worker) map[int]bool {
	pl, ok := w.(PartitionLister)
	if !ok {
		return nil
	}
	qctx, cancel := context.WithTimeout(ctx, c.opts.HeartbeatTimeout)
	defer cancel()
	keys, err := pl.Parts(qctx)
	if err != nil || len(keys) == 0 {
		return nil
	}
	warm := make(map[int]bool, len(keys))
	for _, k := range keys {
		warm[k] = true
	}
	return warm
}

// rebalanceLocked converges partition assignments onto the current ring:
// every partition whose ring owner differs from its assignment moves there —
// without any data motion when the owner is warm for the partition's key.
// A failed ship leaves the old assignment for the mid-run failover (or
// degraded local) path to handle. Callers hold viewMu.
func (c *Cluster) rebalanceLocked(ctx context.Context) {
	nParts := c.partitionCount()
	if nParts == 0 {
		return // before Setup (or a zero-row dataset): nothing placed yet
	}
	sp := obs.Start(c.opts.Tracer, "dist.rebalance")
	defer sp.End()
	sp.SetInt("version", int64(c.version))
	sp.SetInt("partitions", int64(nParts))
	moved, warm := 0, 0
	for p := 0; p < nParts; p++ {
		desired := c.placeLocked(p, nParts)
		cur := c.assignOf(p)
		if desired < 0 || desired == cur {
			// No live owner: keep the current assignment; if that worker is
			// gone too, the eval chain degrades to the driver.
			continue
		}
		if c.warmAt(desired, c.wireKey(p)) {
			// The owner already holds this partition from a previous run or
			// a pre-flap load — re-attach without re-shipping the rows.
			c.setAssign(p, desired)
			c.ob.warmAttach.Inc()
			c.decide(Decision{Kind: DecideWarmAttach, Part: p, Worker: desired, Target: -1})
			warm++
			continue
		}
		// Bound the ship so a hung target cannot wedge view application.
		lctx, cancel := context.WithTimeout(ctx, c.opts.HeartbeatTimeout)
		err := c.loadPartition(obs.ContextWith(lctx, sp), desired, p)
		cancel()
		if err != nil {
			sp.Event(fmt.Sprintf("partition %d failed to ship to worker %d: %v", p, desired, err))
			continue
		}
		c.setAssign(p, desired)
		c.ob.rebalances.Inc()
		c.decide(Decision{Kind: DecideRebalance, Part: p, Worker: cur, Target: desired})
		moved++
	}
	sp.SetInt("moved", int64(moved))
	sp.SetInt("warm_attached", int64(warm))
}

// Follow tracks a registrar until stop is called (or ctx ends): the initial
// snapshot is applied immediately, every view change as it is published, and
// the latest view again on a lease-interval ticker — the retry path for
// members whose dial failed on first sight. A fixed fleet has no view to
// follow: Follow returns at once and never touches reg.
func (c *Cluster) Follow(ctx context.Context, reg *membership.Registrar) (stop func()) {
	if c.dial == nil {
		return func() {}
	}
	ch, cancelWatch := reg.Watch()
	fctx, cancel := context.WithCancel(ctx)
	// Apply the current view before returning: a caller that runs Setup
	// right after Follow must place partitions on the fleet that already
	// exists, not race the watcher goroutine and hold everything on the
	// driver until the first mid-run rebalance.
	c.ApplyView(fctx, reg.Snapshot())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(reg.LeaseInterval())
		defer ticker.Stop()
		for {
			select {
			case <-fctx.Done():
				return
			case v := <-ch:
				c.ApplyView(fctx, v)
			case <-ticker.C:
				c.ApplyView(fctx, reg.Snapshot())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancelWatch()
			cancel()
			<-done
		})
	}
}
