package dist

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/rpc"
	"sort"
	"strings"
	"sync"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// wireVersion numbers the layout of LoadArgs and EvalArgs. Both carry it,
// and a worker refuses any other value, including the zero of a driver that
// predates it: a skewed fleet fails at its first call, naming both versions.
// Version 2 ships a 0/1-error partition as the kernel's binary layout.
const wireVersion = 2

// LoadArgs ships a row partition to a remote worker (gob-encoded) as what the
// worker's kernel reads, in little-endian byte arrays that gob copies in one
// piece. Exactly one payload is set, by the kernel core.NewKernel picks for
// the partition:
//
//   - Binary, for the bitset kernel over 0/1 errors: Bits holds the packed
//     columns in the kernel's binary layout (column 0's words, then column
//     1's, …, each with the ErrRows rows that erred first) and no Err is
//     shipped, since the layout carries every error;
//   - Bits alone, for the bitset kernel over continuous errors: the columns
//     packed in row order, with Err;
//   - RowPtr32 and ColIdx32, for the CSR kernel: the int32 row pointers and
//     ascending column ids of the one-hot CSR, with Err.
//
// The field names differ from the unversioned wire's []int RowPtr and
// ColIdx, so an older driver's Load decodes and is then refused by its
// version.
type LoadArgs struct {
	Version            int
	Part               int
	Rows, Cols         int
	Binary             bool
	ErrRows            int
	Bits               []byte
	RowPtr32, ColIdx32 []byte
	Err                []float64
}

// loadArgs packs one partition for Service.Load by the kernel's own rule.
func loadArgs(part int, x *matrix.CSR, e []float64) *LoadArgs {
	a := &LoadArgs{Version: wireVersion, Part: part, Rows: x.Rows(), Cols: x.Cols()}
	k := core.NewKernel(x, e, nil)
	switch {
	case k.Binary():
		a.Binary, a.ErrRows, a.Bits = true, k.ErrRows(), packedBytes(k.Bits())
	case k.UsesBitset():
		a.Bits, a.Err = packedBytes(k.Bits()), e
	default:
		rowPtr, colIdx := x.Components()
		a.RowPtr32 = appendInt32s(make([]byte, 0, 4*len(rowPtr)), rowPtr)
		a.ColIdx32 = appendInt32s(make([]byte, 0, 4*len(colIdx)), colIdx)
		a.Err = e
	}
	return a
}

// packedBytes lays packed columns out as little-endian words, column by
// column.
func packedBytes(cb *matrix.ColumnBits) []byte {
	out := make([]byte, 0, 8*cb.Cols()*cb.Words())
	for c := 0; c < cb.Cols(); c++ {
		for _, w := range cb.Col(c) {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
	}
	return out
}

// checkVersion refuses a message of another wire version.
func checkVersion(v int) error {
	if v != wireVersion {
		return fmt.Errorf("dist: the driver speaks wire version %d and this worker version %d: upgrade the driver and workers together", v, wireVersion)
	}
	return nil
}

// kernel decodes the partition into the kernel the worker evaluates it
// with, refusing one it could not hold without panicking or miscounting
// later. Every buffer is sized by the bytes received, never by Rows or
// Cols, and the byte counts must be whole elements that agree with Rows and
// Cols. Packed words must not set a bit past the last row: the bitset
// kernel would count a row that does not exist, and its general loop would
// read past the errors. A binary payload must count between 0 and Rows
// erring rows and carry neither errors nor CSR ids; its erring and other
// rows share the boundary word, so the bits past the last row are its only
// padding. CSR row pointers must rise from 0 to the id count, and each row's
// column ids must be strictly ascending in [0, Cols): a repeated id would
// count the row for candidates it does not hold. Errors must be finite and
// non-negative.
func (a *LoadArgs) kernel() (*core.Kernel, error) {
	if err := checkVersion(a.Version); err != nil {
		return nil, err
	}
	// Candidate ids travel as int32, so the column space must fit one.
	if a.Rows < 0 || a.Cols < 0 || a.Cols > math.MaxInt32 {
		return nil, fmt.Errorf("dist: bad partition: %d rows and %d columns", a.Rows, a.Cols)
	}
	if a.Binary {
		if len(a.Err) > 0 || len(a.RowPtr32) > 0 || len(a.ColIdx32) > 0 {
			return nil, errors.New("dist: bad partition: a binary layout with errors or CSR ids")
		}
		cb, err := a.packed()
		if err != nil {
			return nil, err
		}
		k, err := core.NewPackedBinaryKernel(cb, a.ErrRows)
		if err != nil {
			return nil, fmt.Errorf("dist: bad partition: %w", err)
		}
		return k, nil
	}
	if len(a.Err) != a.Rows {
		return nil, fmt.Errorf("dist: bad partition: %d errors for %d rows", len(a.Err), a.Rows)
	}
	if err := core.CheckValues(a.Err, core.ErrBadErrorVector); err != nil {
		return nil, err
	}
	if len(a.Bits) > 0 {
		if len(a.RowPtr32) > 0 || len(a.ColIdx32) > 0 {
			return nil, errors.New("dist: bad partition: both packed words and CSR ids")
		}
		cb, err := a.packed()
		if err != nil {
			return nil, err
		}
		return core.NewPackedKernel(cb, a.Err), nil
	}
	if len(a.RowPtr32) != 4*(a.Rows+1) || len(a.ColIdx32)%4 != 0 {
		return nil, fmt.Errorf("dist: bad partition: %d bytes of row pointers and %d of column ids for %d rows",
			len(a.RowPtr32), len(a.ColIdx32), a.Rows)
	}
	rowPtr, colIdx := int32s[int](a.RowPtr32), int32s[int](a.ColIdx32)
	if rowPtr[0] != 0 || rowPtr[a.Rows] != len(colIdx) {
		return nil, fmt.Errorf("dist: bad partition: rowPtr spans [%d, %d] over %d column ids",
			rowPtr[0], rowPtr[a.Rows], len(colIdx))
	}
	for i := 0; i < a.Rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		if hi < lo || hi > len(colIdx) {
			return nil, fmt.Errorf("dist: bad partition: rowPtr decreases or overruns the column ids at row %d", i)
		}
		for k := lo; k < hi; k++ {
			if c := colIdx[k]; c < 0 || c >= a.Cols || (k > lo && c <= colIdx[k-1]) {
				return nil, fmt.Errorf("dist: bad partition: row %d column id %d is outside [0, %d) or not above its predecessor", i, c, a.Cols)
			}
		}
	}
	return core.NewKernel(matrix.NewCSR(a.Rows, a.Cols, rowPtr, colIdx), a.Err, nil), nil
}

// packed decodes Bits into Rows × Cols packed columns, refusing a word count
// other than Cols·⌈Rows/64⌉ and any bit set past the last row.
func (a *LoadArgs) packed() (*matrix.ColumnBits, error) {
	if len(a.Bits)%8 != 0 {
		return nil, fmt.Errorf("dist: bad partition: %d bytes of packed words", len(a.Bits))
	}
	words := make([]uint64, len(a.Bits)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(a.Bits[8*i:])
	}
	cb, err := matrix.NewColumnBits(a.Rows, a.Cols, words)
	if err != nil {
		return nil, fmt.Errorf("dist: bad partition: %w", err)
	}
	return cb, nil
}

// LoadReply acknowledges a Load.
type LoadReply struct{}

// EvalArgs broadcasts one level's slice candidates to a worker as the core
// arena (core.CheckCands): Cands holds n × Level little-endian int32 column
// ids, candidate s at ids [s·Level, (s+1)·Level). Its name differs from the
// unversioned wire's [][]int Cols for the same reason LoadArgs' fields do.
// Dropping the block size an older driver sent kept version 2: gob skips a
// field its receiver lacks, and an older worker reads the missing one as 0,
// the automatic size, which never changes a statistic.
type EvalArgs struct {
	Version int
	Part    int
	Level   int
	Cands   []byte
}

// appendInt32s appends v to dst as little-endian int32s.
func appendInt32s[T int | int32](dst []byte, v []T) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(x)))
	}
	return dst
}

// int32s decodes little-endian int32s into one slice; callers check
// len(b) % 4 == 0.
func int32s[T int | int32](b []byte) []T {
	out := make([]T, len(b)/4)
	for i := range out {
		out[i] = T(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
	return out
}

// EvalReply carries the partial statistics of one partition.
type EvalReply struct {
	SS, SE, SM []float64
}

// PingArgs is the (empty) request of the liveness probe.
type PingArgs struct{}

// PingReply is the (empty) response of the liveness probe.
type PingReply struct{}

// PartsArgs is the (empty) request of the held-partition query.
type PartsArgs struct{}

// PartsReply lists the partition keys a worker currently holds. A
// membership fleet asks a rejoining worker so warm partitions re-attach by
// key instead of being re-shipped.
type PartsReply struct {
	Keys []int
}

// PartitionLister is the optional Worker capability behind warm re-attach:
// a worker that can report which partition keys it holds lets a membership
// fleet skip re-shipping data a rejoining member never lost.
type PartitionLister interface {
	Parts(ctx context.Context) ([]int, error)
}

// Service is the RPC service a worker process exposes. Register it with
// net/rpc and serve on a TCP listener (see Serve and cmd/slworker). It
// holds any number of partitions keyed by id, supporting driver-side
// failover. With content-addressed keys the held set accrues across jobs
// (that is what makes rejoins warm), so maxParts bounds it with
// least-recently-used eviction.
type Service struct {
	maxParts int
	mu       sync.Mutex
	parts    map[int]*core.Kernel
	lastUse  map[int]uint64
	useSeq   uint64
	ob       svcObs
}

// Load implements the worker side of partition shipping. A malformed
// partition is rejected before anything is stored or evicted: net/rpc runs
// service methods without a recover, so a panic here would end the worker.
func (s *Service) Load(args *LoadArgs, _ *LoadReply) error {
	k, err := args.kernel()
	if err != nil {
		return err
	}
	s.ob.loads.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parts == nil {
		s.parts = make(map[int]*core.Kernel)
		s.lastUse = make(map[int]uint64)
	}
	if _, held := s.parts[args.Part]; !held && s.maxParts > 0 && len(s.parts) >= s.maxParts {
		s.evictLRULocked()
	}
	s.parts[args.Part] = k
	s.touchLocked(args.Part)
	rows := 0
	for _, k := range s.parts {
		rows += k.Rows()
	}
	s.ob.parts.Set(float64(len(s.parts)))
	s.ob.rows.Set(float64(rows))
	return nil
}

// evictLRULocked drops the least-recently-used partition to make room.
func (s *Service) evictLRULocked() {
	victim, best := -1, uint64(0)
	for key, seq := range s.lastUse {
		if victim < 0 || seq < best {
			victim, best = key, seq
		}
	}
	if victim >= 0 {
		delete(s.parts, victim)
		delete(s.lastUse, victim)
		s.ob.evictedParts.Inc()
	}
}

func (s *Service) touchLocked(key int) {
	s.useSeq++
	s.lastUse[key] = s.useSeq
}

// Eval implements the worker side of candidate evaluation. The candidates
// are decoded into one arena and checked against the held partition by
// core.CheckCands first: an out-of-range column id would panic inside a
// kernel goroutine, where nothing can recover it.
func (s *Service) Eval(args *EvalArgs, reply *EvalReply) error {
	s.ob.evals.Inc()
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	s.mu.Lock()
	k, ok := s.parts[args.Part]
	if ok {
		s.touchLocked(args.Part)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("dist: worker holds no partition %d", args.Part)
	}
	if len(args.Cands)%4 != 0 {
		return fmt.Errorf("dist: %d candidate bytes are not whole int32 ids", len(args.Cands))
	}
	ids := int32s[int32](args.Cands)
	if err := core.CheckCands(ids, args.Level, k.Cols()); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	n := len(ids) / args.Level
	s.ob.cands.Add(int64(n))
	reply.SS = make([]float64, n)
	reply.SE = make([]float64, n)
	reply.SM = make([]float64, n)
	start := time.Now()
	k.Eval(ids, args.Level, reply.SS, reply.SE, reply.SM)
	s.ob.evalSecs.Observe(time.Since(start).Seconds())
	return nil
}

// Ping implements the worker side of the liveness probe used by the
// cluster's background health checker.
func (s *Service) Ping(_ *PingArgs, _ *PingReply) error {
	s.ob.pings.Inc()
	return nil
}

// Parts implements the worker side of the held-partition query (warm
// re-attach reconciliation). Keys are returned sorted for determinism.
func (s *Service) Parts(_ *PartsArgs, reply *PartsReply) error {
	s.mu.Lock()
	reply.Keys = make([]int, 0, len(s.parts))
	for key := range s.parts {
		reply.Keys = append(reply.Keys, key)
	}
	s.mu.Unlock()
	sort.Ints(reply.Keys)
	return nil
}

// Server serves worker RPCs on a listener. It supports abrupt Stop —
// modelling worker crashes for failover drills — and graceful Shutdown,
// which stops accepting connections, waits for in-flight calls to complete,
// and only then tears connections down, so a drained worker never leaves a
// driver holding a torn half-written reply. A restarted Server on the same
// address starts with an empty partition map, like a respawned process.
type Server struct {
	lis net.Listener
	srv *rpc.Server

	mu       sync.Mutex
	idle     *sync.Cond // signalled when inflight drops to zero once closed
	conns    map[net.Conn]struct{}
	inflight int
	closed   bool // set by Stop and Shutdown; Serve refuses later connections
}

// ServerOptions configures a worker RPC server's observability and
// partition cap.
type ServerOptions struct {
	// Metrics, when non-nil, receives the worker-side RPC counters, eval
	// latency histogram and partition/row gauges (the sl_worker_* families).
	// Expose the registry over HTTP with obs.Handler (see cmd/slworker's
	// -metrics-addr flag).
	Metrics *obs.Registry

	// MaxPartitions bounds how many partitions this worker holds at once;
	// the least-recently-used one is evicted to make room. Content-addressed
	// keys accrue across jobs (that is what makes rejoins warm), so
	// long-lived fleet workers should set a cap. <= 0 means unbounded.
	MaxPartitions int
}

// NewServer wraps a listener in a worker RPC server; call Serve to run it.
func NewServer(lis net.Listener) (*Server, error) {
	return NewServerOpts(lis, ServerOptions{})
}

// NewServerOpts is NewServer with explicit observability options.
func NewServerOpts(lis net.Listener, opts ServerOptions) (*Server, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &Service{maxParts: opts.MaxPartitions, ob: newSvcObs(opts.Metrics)}); err != nil {
		return nil, err
	}
	s := &Server{lis: lis, srv: srv, conns: make(map[net.Conn]struct{})}
	s.idle = sync.NewCond(&s.mu)
	return s, nil
}

// Serve accepts and serves connections until the listener closes. Each
// connection is served concurrently. It returns nil when Stop, Shutdown, or
// a direct listener Close ends the accept loop.
func (s *Server) Serve() error {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			// Refuse connections that raced with Stop or Shutdown: Accept
			// can return one just before the listener closes, after the
			// loop that closes tracked connections ran.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			s.srv.ServeCodec(newCountingCodec(conn, s))
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Stop abruptly shuts the server down: the listener and all established
// connections are closed, as if the worker process died.
func (s *Server) Stop() {
	s.lis.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
}

// Shutdown drains the server gracefully: it closes the listener (refusing
// new connections), waits for every in-flight call to finish writing its
// reply, then closes the remaining connections. It returns the context's
// error if the deadline expires with calls still in flight (those are then
// cut, as Stop would).
func (s *Server) Shutdown(ctx context.Context) error {
	s.lis.Close()
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	go func() {
		<-wctx.Done()
		s.mu.Lock()
		s.idle.Broadcast()
		s.mu.Unlock()
	}()
	s.mu.Lock()
	s.closed = true
	for s.inflight > 0 && ctx.Err() == nil {
		s.idle.Wait()
	}
	drained := s.inflight == 0
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	if !drained {
		return ctx.Err()
	}
	return nil
}

func (s *Server) requestStarted() {
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
}

func (s *Server) requestDone() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 && s.closed {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// countingCodec is the standard gob server codec with in-flight request
// accounting hooked in: a request counts from the moment its header is read
// until its response has been flushed, which is exactly the window Shutdown
// must wait out.
type countingCodec struct {
	rwc    io.ReadWriteCloser
	dec    *gob.Decoder
	enc    *gob.Encoder
	encBuf *bufio.Writer
	srv    *Server
	closed bool
}

func newCountingCodec(conn io.ReadWriteCloser, srv *Server) *countingCodec {
	buf := bufio.NewWriter(conn)
	return &countingCodec{
		rwc:    conn,
		dec:    gob.NewDecoder(conn),
		enc:    gob.NewEncoder(buf),
		encBuf: buf,
		srv:    srv,
	}
}

func (c *countingCodec) ReadRequestHeader(r *rpc.Request) error {
	if err := c.dec.Decode(r); err != nil {
		return err
	}
	c.srv.requestStarted()
	return nil
}

func (c *countingCodec) ReadRequestBody(body interface{}) error {
	return c.dec.Decode(body)
}

func (c *countingCodec) WriteResponse(r *rpc.Response, body interface{}) error {
	defer c.srv.requestDone()
	if err := c.enc.Encode(r); err != nil {
		return err
	}
	if err := c.enc.Encode(body); err != nil {
		return err
	}
	return c.encBuf.Flush()
}

func (c *countingCodec) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.rwc.Close()
}

// Serve accepts worker connections on the listener until it is closed. Each
// connection is served concurrently. It returns when the listener closes.
func Serve(lis net.Listener) error {
	s, err := NewServer(lis)
	if err != nil {
		return err
	}
	return s.Serve()
}

// DialOptions bounds reconnection behavior of a RemoteWorker.
type DialOptions struct {
	// DialTimeout caps one TCP connection attempt. <= 0 defaults to 5s.
	DialTimeout time.Duration
	// MaxAttempts is the number of dial attempts per outage before the
	// reconnect is abandoned. <= 0 defaults to 4.
	MaxAttempts int
	// BaseBackoff is the wait before the second attempt; it doubles per
	// attempt with ±50% jitter. <= 0 defaults to 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the growing backoff. <= 0 defaults to 2s.
	MaxBackoff time.Duration
}

func (o DialOptions) withDefaults() DialOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	return o
}

// RemoteWorker talks to a worker process over TCP with gob-encoded RPC. It
// models the broadcast/serialization overheads of the paper's distributed
// backend. When a call fails at the transport level (worker crashed,
// connection dropped), the next call transparently reconnects with bounded
// exponential backoff, so a worker restarted on the same address — with its
// partitions gone, but alive — rejoins the cluster instead of being lost
// for the rest of the run. Reconnection is single-flight: concurrent calls
// failing on the same dead connection share one dial instead of racing to
// replace (and close) each other's fresh clients.
type RemoteWorker struct {
	addr string
	opts DialOptions

	mu          sync.Mutex
	cond        *sync.Cond  // guards the single-flight dial hand-off
	client      *rpc.Client // nil while disconnected
	gen         int         // increments per successful dial; identifies a connection
	dialing     bool        // a dial is in flight; waiters block on cond
	dialGen     int         // increments per finished dial attempt (success or failure)
	lastDialErr error       // outcome of the most recent failed dial
	closed      bool
}

// Dial connects to a worker at addr (host:port) with default options.
func Dial(addr string) (*RemoteWorker, error) {
	return DialOpts(addr, DialOptions{})
}

// DialOpts connects to a worker at addr with explicit reconnect options.
// The initial connection is attempted eagerly so a bad address fails fast.
func DialOpts(addr string, opts DialOptions) (*RemoteWorker, error) {
	w := &RemoteWorker{addr: addr, opts: opts.withDefaults()}
	w.cond = sync.NewCond(&w.mu)
	client, err := w.dialOnce(context.Background())
	if err != nil {
		return nil, fmt.Errorf("dist: dialing %s: %w", addr, err)
	}
	w.client = client
	w.gen = 1
	return w, nil
}

func (w *RemoteWorker) dialOnce(ctx context.Context) (*rpc.Client, error) {
	d := net.Dialer{Timeout: w.opts.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", w.addr)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}

// dialBackoff retries dialOnce with exponential backoff and jitter, bounded
// by MaxAttempts and the context.
func (w *RemoteWorker) dialBackoff(ctx context.Context) (*rpc.Client, error) {
	backoff := w.opts.BaseBackoff
	var lastErr error
	for attempt := 0; attempt < w.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Full jitter on the upper half de-synchronizes workers that all
			// lost the same peer at the same moment.
			sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if backoff *= 2; backoff > w.opts.MaxBackoff {
				backoff = w.opts.MaxBackoff
			}
		}
		client, err := w.dialOnce(ctx)
		if err == nil {
			return client, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("dist: redialing %s after %d attempts: %w", w.addr, w.opts.MaxAttempts, lastErr)
}

// conn returns the live client, reconnecting (single-flight) when the
// previous connection was invalidated. Callers that arrive while another
// goroutine is dialing wait for that dial instead of starting their own; if
// it fails they inherit its error, so one outage costs one dial sequence.
func (w *RemoteWorker) conn(ctx context.Context) (*rpc.Client, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.closed {
			return nil, 0, fmt.Errorf("dist: worker %s is closed", w.addr)
		}
		if w.client != nil {
			return w.client, w.gen, nil
		}
		if w.dialing {
			g := w.dialGen
			w.cond.Wait()
			if w.client == nil && w.dialGen != g && w.lastDialErr != nil {
				return nil, 0, w.lastDialErr
			}
			continue
		}
		w.dialing = true
		w.mu.Unlock()
		client, err := w.dialBackoff(ctx)
		w.mu.Lock()
		w.dialing = false
		w.dialGen++
		switch {
		case err != nil:
			w.lastDialErr = err
		case w.closed:
			client.Close()
			err = fmt.Errorf("dist: worker %s is closed", w.addr)
		default:
			w.client = client
			w.gen++
			w.lastDialErr = nil
		}
		w.cond.Broadcast()
		if err != nil {
			return nil, 0, err
		}
	}
}

// invalidate retires a failed connection. The generation check makes it
// idempotent under races: if another goroutine already replaced the client,
// the fresh connection is left alone.
func (w *RemoteWorker) invalidate(client *rpc.Client, gen int) {
	w.mu.Lock()
	if w.gen == gen && w.client == client {
		w.client = nil
	}
	w.mu.Unlock()
	client.Close()
}

// call performs one RPC under the context's deadline, reconnecting once on
// transport-level failure. Server-side application errors (rpc.ServerError)
// are returned as-is: the connection is fine, the worker just rejected the
// request. When the context expires mid-call the connection is poisoned —
// its gob stream now carries an orphan reply — and the next call redials.
func (w *RemoteWorker) call(ctx context.Context, method string, args, reply interface{}) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		client, gen, err := w.conn(ctx)
		if err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		err = w.invoke(ctx, client, gen, method, args, reply)
		if err == nil || isServerError(err) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		w.invalidate(client, gen)
		lastErr = err
	}
	return lastErr
}

// invoke runs one RPC on a specific connection, aborting when the context
// is done. net/rpc has no native deadline support, so an abandoned call's
// connection cannot be reused — it is invalidated and the in-flight call
// unblocks with ErrShutdown when the client closes.
func (w *RemoteWorker) invoke(ctx context.Context, client *rpc.Client, gen int, method string, args, reply interface{}) error {
	// An expired context never sends, so a fast reply cannot win the select.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("dist: %s on %s: %w", method, w.addr, err)
	}
	call := client.Go(method, args, reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		w.invalidate(client, gen)
		return fmt.Errorf("dist: %s on %s: %w", method, w.addr, ctx.Err())
	case done := <-call.Done:
		return done.Error
	}
}

func isServerError(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se)
}

// Load implements Worker.
func (w *RemoteWorker) Load(ctx context.Context, part int, x *matrix.CSR, e []float64) error {
	return w.call(ctx, "Worker.Load", loadArgs(part, x, e), &LoadReply{})
}

// Eval implements Worker.
func (w *RemoteWorker) Eval(ctx context.Context, part int, cands []byte, level int) (ss, se, sm []float64, err error) {
	args := &EvalArgs{Version: wireVersion, Part: part, Level: level, Cands: cands}
	var reply EvalReply
	if err = w.call(ctx, "Worker.Eval", args, &reply); err != nil {
		return nil, nil, nil, fmt.Errorf("dist: eval on %s: %w", w.addr, err)
	}
	return reply.SS, reply.SE, reply.SM, nil
}

// Ping implements Worker.
func (w *RemoteWorker) Ping(ctx context.Context) error {
	return w.call(ctx, "Worker.Ping", &PingArgs{}, &PingReply{})
}

// Parts implements PartitionLister: the partition keys the worker process
// currently holds.
func (w *RemoteWorker) Parts(ctx context.Context) ([]int, error) {
	var reply PartsReply
	if err := w.call(ctx, "Worker.Parts", &PartsArgs{}, &reply); err != nil {
		return nil, fmt.Errorf("dist: parts on %s: %w", w.addr, err)
	}
	return reply.Keys, nil
}

// ParseWorkerList parses a comma-separated -workers flag value into a clean
// address list: entries are trimmed, empty entries are dropped, a value with
// no addresses at all is an error, and duplicate addresses are rejected — a
// duplicate would silently halve a fixed fleet's capacity by shipping two
// partitions to one process.
func ParseWorkerList(s string) ([]string, error) {
	var out []string
	seen := make(map[string]struct{})
	for _, raw := range strings.Split(s, ",") {
		addr := strings.TrimSpace(raw)
		if addr == "" {
			continue
		}
		if _, dup := seen[addr]; dup {
			return nil, fmt.Errorf("dist: duplicate worker address %q", addr)
		}
		seen[addr] = struct{}{}
		out = append(out, addr)
	}
	if len(out) == 0 {
		return nil, errors.New("dist: no worker addresses in list")
	}
	return out, nil
}

// DialCluster dials every worker address (as ParseWorkerList returns them)
// and assembles a fixed-fleet Dist-PFor cluster over the connections. If a
// dial fails, the workers already dialed are closed before the error returns.
func DialCluster(addrs []string, opts Options) (*Cluster, error) {
	workers := make([]Worker, 0, len(addrs))
	for _, a := range addrs {
		w, err := Dial(a)
		if err != nil {
			for _, prev := range workers {
				prev.Close()
			}
			return nil, err
		}
		workers = append(workers, w)
	}
	return NewClusterOpts(workers, opts)
}

// Close implements Worker.
func (w *RemoteWorker) Close() error {
	w.mu.Lock()
	w.closed = true
	client := w.client
	w.client = nil
	w.cond.Broadcast()
	w.mu.Unlock()
	if client != nil {
		return client.Close()
	}
	return nil
}

var _ Worker = (*RemoteWorker)(nil)
var _ Worker = (*InProcessWorker)(nil)
