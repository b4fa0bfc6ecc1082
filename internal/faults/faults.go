// Package faults provides deterministic fault injection for exercising the
// self-healing Dist-PFor cluster runtime. A fault Schedule scripts, per
// worker operation and call index, exactly which fault fires — either
// explicitly rule by rule, or pseudo-randomly from a seed — so a chaos test
// that fails reproduces from its seed alone, independent of goroutine
// scheduling.
//
// The Worker wrapper injects the faults in-process at the Worker-interface
// boundary (the same boundary the RPC layer crosses), which makes every
// failure mode of a remote worker reproducible without sockets: crashes
// before or after the work executed, indefinite hangs, slow replies, short
// replies, corrupt replies, and flappy workers that fail on some calls and
// answer others. The Listener/Conn wrappers inject transport-level faults
// (read/write delays, mid-stream disconnects) under a real TCP worker.
package faults

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"sync"
	"time"

	"sliceline/internal/dist"
	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// Op identifies one Worker operation.
type Op int

// Worker operations faults can target.
const (
	OpLoad Op = iota
	OpEval
	OpPing
	numOps
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpLoad:
		return "Load"
	case OpEval:
		return "Eval"
	case OpPing:
		return "Ping"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Kind is one fault type.
type Kind int

// Fault kinds, modelling the distinct distributed failure modes: a fault-
// free call, added latency, an indefinite hang (released only by the
// caller's deadline), a crash before the work executed, a crash after the
// work executed but before the reply (the classic ambiguous failure),
// a truncated reply, and a garbled reply.
const (
	None Kind = iota
	Delay
	Hang
	CrashBefore
	CrashAfter
	ShortReply
	CorruptReply
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Delay:
		return "delay"
	case Hang:
		return "hang"
	case CrashBefore:
		return "crash-before"
	case CrashAfter:
		return "crash-after"
	case ShortReply:
		return "short-reply"
	case CorruptReply:
		return "corrupt-reply"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrInjected is the base error of every injected crash; tests can
// errors.Is against it to distinguish injected faults from real bugs.
var ErrInjected = errors.New("faults: injected failure")

// ParseOp resolves an operation by its String name ("Load", "Eval", "Ping",
// case-insensitively also "load" etc.), for declarative fault scripts.
func ParseOp(s string) (Op, error) {
	switch s {
	case "Load", "load":
		return OpLoad, nil
	case "Eval", "eval":
		return OpEval, nil
	case "Ping", "ping":
		return OpPing, nil
	default:
		return 0, fmt.Errorf("faults: unknown op %q", s)
	}
}

// ParseKind resolves a fault kind by its String name ("delay",
// "crash-before", …), for declarative fault scripts.
func ParseKind(s string) (Kind, error) {
	for k := None; k <= CorruptReply; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q", s)
}

// Action is the fault applied to one call.
type Action struct {
	Kind  Kind
	Delay time.Duration // latency for Delay; ignored otherwise
}

// Schedule decides the Action for each (operation, call index) pair. Call
// indices count per operation, starting at 0, in the order the wrapped
// worker receives the calls.
type Schedule struct {
	mu    sync.Mutex
	rules map[Op]map[int]Action

	seed    int64
	profile Profile
}

// NewSchedule returns an empty schedule (every call fault-free) to be
// populated with On.
func NewSchedule() *Schedule {
	return &Schedule{rules: make(map[Op]map[int]Action)}
}

// On scripts an explicit fault: the call-th invocation of op suffers action.
// It returns the schedule for chaining.
func (s *Schedule) On(op Op, call int, action Action) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rules[op] == nil {
		s.rules[op] = make(map[int]Action)
	}
	s.rules[op][call] = action
	return s
}

// Profile shapes a seeded schedule: per-mille probabilities of each fault
// kind per call, applied independently per (op, call) pair.
type Profile struct {
	// DelayPerMille etc. are probabilities out of 1000 per call.
	DelayPerMille, HangPerMille, CrashBeforePerMille, CrashAfterPerMille,
	ShortPerMille, CorruptPerMille int
	// MaxDelay bounds injected latency; 0 defaults to 20ms.
	MaxDelay time.Duration
}

// Chaos is a moderately hostile default profile: roughly one call in four
// suffers some fault, every kind represented.
var Chaos = Profile{
	DelayPerMille:       100,
	HangPerMille:        30,
	CrashBeforePerMille: 50,
	CrashAfterPerMille:  30,
	ShortPerMille:       20,
	CorruptPerMille:     20,
}

// Seeded returns a schedule whose actions are a pure function of
// (seed, op, call index): re-running with the same seed injects the same
// faults at the same call indices regardless of timing or goroutine
// interleaving.
func Seeded(seed int64, p Profile) *Schedule {
	if p.MaxDelay <= 0 {
		p.MaxDelay = 20 * time.Millisecond
	}
	return &Schedule{seed: seed, profile: p}
}

// Action resolves the fault scripted for one (operation, call index) pair.
// It is a pure function of the schedule's rules (or seed), so the cluster
// simulator resolves scenario fault scripts through the very same schedule
// the in-process chaos wrapper uses.
func (s *Schedule) Action(op Op, call int) Action {
	return s.action(op, call)
}

// action resolves the fault for one call.
func (s *Schedule) action(op Op, call int) Action {
	if s == nil {
		return Action{}
	}
	s.mu.Lock()
	if s.rules != nil {
		a := s.rules[op][call]
		s.mu.Unlock()
		return a
	}
	s.mu.Unlock()
	// Seeded mode: hash (seed, op, call) into a uniform draw.
	h := fnv.New64a()
	var b [8]byte
	for i, v := range []uint64{uint64(s.seed), uint64(op), uint64(call)} {
		_ = i
		b[0] = byte(v)
		b[1] = byte(v >> 8)
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
		b[4] = byte(v >> 32)
		b[5] = byte(v >> 40)
		b[6] = byte(v >> 48)
		b[7] = byte(v >> 56)
		h.Write(b[:])
	}
	u := h.Sum64()
	draw := int(u % 1000)
	p := s.profile
	for _, c := range []struct {
		perMille int
		kind     Kind
	}{
		{p.DelayPerMille, Delay},
		{p.HangPerMille, Hang},
		{p.CrashBeforePerMille, CrashBefore},
		{p.CrashAfterPerMille, CrashAfter},
		{p.ShortPerMille, ShortReply},
		{p.CorruptPerMille, CorruptReply},
	} {
		if draw < c.perMille {
			a := Action{Kind: c.kind}
			if c.kind == Delay {
				// Derive the latency from the upper hash bits so it is
				// deterministic too.
				a.Delay = time.Duration(1+(u>>32)%uint64(p.MaxDelay.Milliseconds())) * time.Millisecond
			}
			return a
		}
		draw -= c.perMille
	}
	return Action{}
}

// Worker wraps a dist.Worker and injects scheduled faults. It is safe for
// concurrent use; call indices are assigned in arrival order under a lock.
type Worker struct {
	inner dist.Worker
	sched *Schedule

	mu    sync.Mutex
	calls [numOps]int
}

// Wrap returns a fault-injecting wrapper around w driven by sched. A nil
// schedule injects nothing.
func Wrap(w dist.Worker, sched *Schedule) *Worker {
	return &Worker{inner: w, sched: sched}
}

// next assigns this call's index and resolves its action. A firing fault is
// announced as an event on the span carried by ctx (the cluster's per-RPC
// span), so traces of chaos runs show exactly which calls were sabotaged.
func (w *Worker) next(ctx context.Context, op Op) Action {
	w.mu.Lock()
	call := w.calls[op]
	w.calls[op]++
	w.mu.Unlock()
	a := w.sched.action(op, call)
	if a.Kind != None {
		sp := obs.FromContext(ctx)
		sp.Event(fmt.Sprintf("fault injected: %s on %s call %d", a.Kind, op, call))
		sp.SetStr("fault", a.Kind.String())
	}
	return a
}

// Calls reports how many invocations of op the worker has received,
// including faulted ones.
func (w *Worker) Calls(op Op) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.calls[op]
}

// before applies the pre-execution half of an action. It reports whether
// the call should proceed to the real worker.
func (w *Worker) before(ctx context.Context, op Op, a Action) error {
	switch a.Kind {
	case Delay:
		select {
		case <-time.After(a.Delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	case Hang:
		// Hang until the caller gives up; a deadline-free caller blocks
		// forever, which is exactly the pathology the runtime must bound.
		<-ctx.Done()
		return ctx.Err()
	case CrashBefore:
		return fmt.Errorf("%w: %s crashed before executing", ErrInjected, op)
	}
	return nil
}

// Load implements dist.Worker.
func (w *Worker) Load(ctx context.Context, part int, x *matrix.CSR, e []float64) error {
	a := w.next(ctx, OpLoad)
	if err := w.before(ctx, OpLoad, a); err != nil {
		return err
	}
	err := w.inner.Load(ctx, part, x, e)
	if a.Kind == CrashAfter {
		// The load happened, but the caller never learns: on a reload the
		// worker already holds the partition (idempotent), mirroring a lost
		// ack.
		return fmt.Errorf("%w: Load crashed after executing", ErrInjected)
	}
	return err
}

// Eval implements dist.Worker.
func (w *Worker) Eval(ctx context.Context, part int, cols [][]int, level int) (ss, se, sm []float64, err error) {
	a := w.next(ctx, OpEval)
	if err := w.before(ctx, OpEval, a); err != nil {
		return nil, nil, nil, err
	}
	ss, se, sm, err = w.inner.Eval(ctx, part, cols, level)
	if err != nil {
		return nil, nil, nil, err
	}
	switch a.Kind {
	case CrashAfter:
		return nil, nil, nil, fmt.Errorf("%w: Eval crashed after executing", ErrInjected)
	case ShortReply:
		half := len(ss) / 2
		return ss[:half], se[:half], sm[:half], nil
	case CorruptReply:
		// Garble the reply the way a torn decode would: out-of-domain
		// values the driver's validation must reject.
		css := append([]float64(nil), ss...)
		cse := append([]float64(nil), se...)
		csm := append([]float64(nil), sm...)
		if len(css) > 0 {
			css[0] = math.NaN()
			cse[len(cse)-1] = -1
			csm[len(csm)/2] = math.Inf(1)
		}
		return css, cse, csm, nil
	}
	return ss, se, sm, nil
}

// Ping implements dist.Worker. Any scheduled fault fails the probe; Delay
// beyond the probe deadline fails it too, via ctx.
func (w *Worker) Ping(ctx context.Context) error {
	a := w.next(ctx, OpPing)
	if err := w.before(ctx, OpPing, a); err != nil {
		return err
	}
	switch a.Kind {
	case CrashAfter, ShortReply, CorruptReply:
		return fmt.Errorf("%w: Ping dropped", ErrInjected)
	}
	return w.inner.Ping(ctx)
}

// Close implements dist.Worker.
func (w *Worker) Close() error { return w.inner.Close() }

var _ dist.Worker = (*Worker)(nil)

// ConnScript scripts transport faults for one accepted connection.
type ConnScript struct {
	ReadDelay  time.Duration // added before every Read
	WriteDelay time.Duration // added before every Write
	// TearWrite, when > 0, tears the conn at its TearWrite-th Write: half
	// of that Write's bytes go out, then the conn closes. A worker server
	// writes only replies, so on a server-side conn the tear always lands
	// on a call its client is still waiting for.
	TearWrite int
}

// Listener wraps a net.Listener and applies per-connection scripts in
// accept order: connection i gets Scripts[i]; connections beyond the script
// list are clean. Combined with the RemoteWorker's bounded redial this
// exercises flappy-transport recovery under a real gob/RPC stream.
type Listener struct {
	net.Listener
	Scripts []ConnScript

	mu       sync.Mutex
	accepted int
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.accepted
	l.accepted++
	l.mu.Unlock()
	if i < len(l.Scripts) {
		return &conn{Conn: c, script: l.Scripts[i]}, nil
	}
	return c, nil
}

// Accepted reports how many connections the listener has accepted.
func (l *Listener) Accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted
}

type conn struct {
	net.Conn
	script ConnScript

	mu     sync.Mutex
	writes int
}

func (c *conn) Read(p []byte) (int, error) {
	if c.script.ReadDelay > 0 {
		time.Sleep(c.script.ReadDelay)
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	if c.script.WriteDelay > 0 {
		time.Sleep(c.script.WriteDelay)
	}
	c.mu.Lock()
	c.writes++
	tear := c.writes == c.script.TearWrite
	c.mu.Unlock()
	if tear {
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return n, fmt.Errorf("%w: connection torn mid-write", ErrInjected)
	}
	return c.Conn.Write(p)
}
