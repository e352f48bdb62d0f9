package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gcplus/internal/persist"
	"gcplus/internal/shardhost"
	"gcplus/internal/wire"
)

// The loopback transport runs the full wire path — request encode,
// TCP, server decode, owner-job dispatch, reply encode, TCP, client
// decode — with every shard host living in the same process behind
// 127.0.0.1. It exists to pin the cluster seam: a remote shard host is
// this server listening on a non-loopback address, nothing else
// changes.
//
// Ordering. The router's consistency argument needs per-shard call
// order fixed synchronously at call time. The client provides it with
// one TCP connection per shard and a mutex-serialized frame write
// inside each method: wire order equals call order. The server's
// per-connection reader dispatches frames to the host in arrival
// order, so the shard's FIFO job queue observes exactly the client's
// call order. CANCEL frames are the one exception — the reader handles
// them inline (cancelling the in-flight request's context) instead of
// enqueueing, so a cancel is never stuck behind the work it cancels.
//
// Deadlines cross the wire as relative budgets (no clock agreement
// needed); explicit context cancellation additionally sends a CANCEL
// frame via context.AfterFunc.

// LoopbackServer serves a set of shard hosts over TCP on 127.0.0.1.
type LoopbackServer struct {
	hosts  []*shardhost.Host
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeLoopback starts a server for hosts on an ephemeral 127.0.0.1
// port. The hosts must already be started; the server does not own
// their lifecycle.
func ServeLoopback(hosts []*shardhost.Host) (*LoopbackServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &LoopbackServer{hosts: hosts, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address to dial.
func (s *LoopbackServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, tears down every connection, and waits for
// the connection handlers to drain.
func (s *LoopbackServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *LoopbackServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// srvReply is one queued reply: the writer goroutine renders it so
// encoding never runs on the shard owner goroutine.
type srvReply struct {
	typ byte
	id  uint64
	enc func(dst []byte) []byte
}

func (s *LoopbackServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	// HELLO: the first frame binds this connection to one shard and
	// must announce protocolVersion.
	hello, err := wire.ReadFrame(conn, 0)
	if err != nil {
		return
	}
	hd := wire.NewDec("transport", hello)
	typ, shard, ver := hd.Byte(), hd.Uvarint(), hd.Uvarint()
	if hd.Finish("hello") != nil || typ != msgHello || ver != protocolVersion || shard >= uint64(len(s.hosts)) {
		return
	}
	host := s.hosts[shard]

	outCh := make(chan srvReply, 256)
	var pending sync.WaitGroup
	var imu sync.Mutex
	inflight := make(map[uint64]context.CancelFunc)

	// Writer: renders and writes replies until outCh closes. After a
	// write error it keeps draining (discarding) so reply senders on
	// owner goroutines never block on a dead connection.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var buf []byte
		dead := false
		for r := range outCh {
			if dead {
				continue
			}
			buf = appendReplyFrame(buf[:0], r.id, r.typ, host.Signals(), r.enc)
			if _, err := conn.Write(buf); err != nil {
				dead = true
			}
		}
	}()

	// reply hands one completed request to the writer. outCh is closed
	// only after pending.Wait(), so a send can never hit a closed
	// channel.
	reply := func(typ byte, id uint64, enc func([]byte) []byte) {
		outCh <- srvReply{typ: typ, id: id, enc: enc}
		pending.Done()
	}

	// Reader: dispatch frames in arrival order until the connection
	// dies or a frame is malformed (poisoned stream — stop cold rather
	// than guess at resynchronization).
	for {
		payload, err := wire.ReadFrame(conn, 0)
		if err != nil {
			break
		}
		d := wire.NewDec("transport", payload)
		typ := d.Byte()
		if typ == msgCancel {
			target := d.Uvarint()
			if d.Err() != nil {
				break
			}
			imu.Lock()
			cancel := inflight[target]
			imu.Unlock()
			if cancel != nil {
				cancel()
			}
			continue
		}
		id := d.Uvarint()
		if d.Err() != nil {
			break
		}

		switch typ {
		case msgQuery:
			req, budget, derr := DecodeQueryRequest(d.Rest())
			if derr != nil {
				pending.Add(1)
				r := &shardhost.QueryReply{Err: derr}
				reply(typ, id, func(dst []byte) []byte { return AppendQueryReply(dst, r) })
				continue
			}
			var ctx context.Context
			var cancel context.CancelFunc
			if budget > 0 {
				ctx, cancel = context.WithTimeout(context.Background(), budget)
			} else {
				ctx, cancel = context.WithCancel(context.Background())
			}
			imu.Lock()
			inflight[id] = cancel
			imu.Unlock()
			pending.Add(1)
			r := &shardhost.QueryReply{}
			host.Query(ctx, req, r, func() {
				imu.Lock()
				delete(inflight, id)
				imu.Unlock()
				cancel()
				reply(typ, id, func(dst []byte) []byte { return AppendQueryReply(dst, r) })
			})

		case msgApplyOp:
			req, derr := DecodeOpRequest(d.Rest())
			if derr != nil {
				pending.Add(1)
				r := &shardhost.OpReply{ID: -1, Err: derr}
				reply(typ, id, func(dst []byte) []byte { return appendOpReply(dst, r) })
				continue
			}
			pending.Add(1)
			r := &shardhost.OpReply{}
			host.ApplyOp(req, r, func() {
				reply(typ, id, func(dst []byte) []byte { return appendOpReply(dst, r) })
			})

		case msgAppendWAL:
			epoch := d.Uvarint()
			if d.Err() != nil {
				goto drain
			}
			pending.Add(1)
			r := &shardhost.WALAppendReply{}
			host.AppendWAL(epoch, r, func() {
				reply(typ, id, func(dst []byte) []byte { return appendWALReply(dst, r) })
			})

		case msgSync:
			pending.Add(1)
			host.Sync(func() {
				reply(typ, id, func(dst []byte) []byte { return dst })
			})

		case msgSnapshot:
			epoch := d.Uvarint()
			if d.Err() != nil {
				goto drain
			}
			pending.Add(1)
			r := &shardhost.SnapshotReply{}
			host.Snapshot(epoch, r, func() {
				reply(typ, id, func(dst []byte) []byte { return appendSnapshotReply(dst, r) })
			})

		case msgStats:
			pending.Add(1)
			r := &shardhost.StatsReply{}
			host.Stats(r, func() {
				reply(typ, id, func(dst []byte) []byte { return appendStatsReply(dst, r) })
			})

		default:
			// Unknown message type: poisoned stream.
			goto drain
		}
	}
drain:
	// Abort whatever is still running, let every dispatched request
	// deliver its reply (discarded by the dead writer if the conn is
	// gone), then release the writer.
	imu.Lock()
	for _, cancel := range inflight {
		cancel()
	}
	imu.Unlock()
	pending.Wait()
	close(outCh)
	<-writerDone
}

// appendReplyFrame renders one reply frame onto dst: the reply header,
// piggybacking the shard's pressure sample so the client's Signals stay
// fresh with zero extra round trips, then the body enc appends.
func appendReplyFrame(dst []byte, id uint64, typ byte, sig shardhost.Signals, enc func([]byte) []byte) []byte {
	start := len(dst)
	dst = append(wire.BeginFrame(dst), msgReply)
	dst = wire.AppendUvarint(dst, id)
	dst = append(dst, typ)
	dst = wire.AppendUvarint(dst, uint64(sig.QueueLen))
	dst = wire.AppendInt(dst, sig.PendingRepairs)
	dst = enc(dst)
	wire.EndFrame(dst[start:])
	return dst
}

// appendOpReply encodes an OpReply body: errblock, then the assigned
// global id on success.
func appendOpReply(dst []byte, r *shardhost.OpReply) []byte {
	dst = appendWireError(dst, r.Err)
	if r.Err == nil {
		dst = wire.AppendInt(dst, int64(r.ID))
	}
	return dst
}

// appendWALReply encodes a WALAppendReply body: errblock, then the
// host-measured append nanos.
func appendWALReply(dst []byte, r *shardhost.WALAppendReply) []byte {
	return wire.AppendInt(appendWireError(dst, r.Err), r.Nanos)
}

// appendStatsReply encodes a StatsReply body: errblock (a JSON encode
// failure), then the reply as JSON.
func appendStatsReply(dst []byte, r *shardhost.StatsReply) []byte {
	b, err := json.Marshal(r)
	dst = appendWireError(dst, err)
	if err == nil {
		dst = wire.AppendBytes(dst, b)
	}
	return dst
}

// appendSnapshotReply encodes a SnapshotReply body: errblock (rotation
// failure, or host-side encode failure — either abandons the
// generation), presence flag, encoded snapshot.
func appendSnapshotReply(dst []byte, r *shardhost.SnapshotReply) []byte {
	var payload []byte
	var encErr error
	if r.Snap != nil {
		payload, encErr = persist.EncodeShardSnapshot(r.Snap)
	}
	werr := r.RotateErr
	if werr == nil {
		werr = encErr
	}
	dst = appendWireError(dst, werr)
	ok := payload != nil && encErr == nil
	dst = wire.AppendBool(dst, ok)
	if ok {
		dst = wire.AppendBytes(dst, payload)
	}
	return dst
}

// call is one in-flight client request: where to decode the reply, and
// how to tell the caller.
type call struct {
	typ     byte
	qreply  *shardhost.QueryReply
	oreply  *shardhost.OpReply
	wreply  *shardhost.WALAppendReply
	snreply *shardhost.SnapshotReply
	streply *shardhost.StatsReply
	done    func()
	stop    func() bool // context.AfterFunc release, queries only
}

// LoopbackClient is one shard's ShardClient over the loopback wire.
type LoopbackClient struct {
	shard int
	conn  net.Conn

	// wmu serializes frame writes: wire order is call order, which is
	// the transport's half of the router's ordering contract. wbuf is
	// the reused encode buffer it guards.
	wmu  sync.Mutex
	wbuf []byte

	nextID atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]*call
	closed  bool

	queueLen       atomic.Int64
	pendingRepairs atomic.Int64

	// maxFrame bounds an outbound frame payload; oversize requests are
	// rejected client-side with StatusBadRequest before any bytes move.
	// Unexported: tests shrink it to exercise the rejection path.
	maxFrame int

	readerDone chan struct{}
}

// DialLoopback connects to a LoopbackServer and binds the connection
// to shard.
func DialLoopback(addr string, shard int) (*LoopbackClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Request/reply frames are small and latency-bound; never let Nagle
	// hold one back waiting for an ACK.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &LoopbackClient{
		shard:      shard,
		conn:       conn,
		pending:    make(map[uint64]*call),
		maxFrame:   MaxFramePayload,
		readerDone: make(chan struct{}),
	}
	hello := wire.AppendUvarint(wire.AppendUvarint([]byte{msgHello}, uint64(shard)), protocolVersion)
	if _, err := conn.Write(wire.AppendFrame(nil, hello)); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

func (c *LoopbackClient) Kind() string { return "loopback" }

func (c *LoopbackClient) Signals() shardhost.Signals {
	return shardhost.Signals{
		QueueLen:       int(c.queueLen.Load()),
		PendingRepairs: c.pendingRepairs.Load(),
	}
}

// send encodes {typ, id, body} into one frame and writes it under wmu.
// The call is registered before the write so an instant reply cannot
// race the registration. Returns a non-nil error — already delivered
// into the call's reply and done — when nothing was sent.
func (c *LoopbackClient) send(id uint64, cl *call, build func(dst []byte) ([]byte, error)) {
	c.wmu.Lock()
	c.wbuf = wire.AppendUvarint(append(wire.BeginFrame(c.wbuf[:0]), cl.typ), id)
	var berr error
	c.wbuf, berr = build(c.wbuf)
	if n := len(c.wbuf) - wire.HeaderSize; berr == nil && n > c.maxFrame {
		berr = badRequestf("transport: request frame payload %d exceeds limit %d", n, c.maxFrame)
	}
	if berr != nil {
		c.wmu.Unlock()
		c.deliverErr(cl, berr)
		return
	}
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		c.wmu.Unlock()
		c.deliverErr(cl, ErrClosed)
		return
	}
	c.pending[id] = cl
	c.pmu.Unlock()
	wire.EndFrame(c.wbuf)
	_, werr := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if werr != nil {
		c.fail(fmt.Errorf("transport: shard %d connection write: %w", c.shard, werr))
	}
}

func (c *LoopbackClient) Query(ctx context.Context, req *shardhost.QueryRequest, reply *shardhost.QueryReply, done func()) {
	id := c.nextID.Add(1)
	cl := &call{typ: msgQuery, qreply: reply, done: done}
	var budget time.Duration
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			budget = time.Until(dl)
			if budget <= 0 {
				// Already expired: ship the smallest non-zero budget so the
				// server cancels it at the queue stage (zero means "none").
				budget = time.Nanosecond
			}
		}
		if ctx.Done() != nil {
			cl.stop = context.AfterFunc(ctx, func() { c.sendCancel(id) })
		}
	}
	c.send(id, cl, func(dst []byte) ([]byte, error) {
		return AppendQueryRequest(dst, req, budget), nil
	})
}

// sendCancel asks the server to cancel request id. Best effort: a
// cancel for a finished (or never-sent) request is a no-op there.
func (c *LoopbackClient) sendCancel(id uint64) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = wire.AppendUvarint(append(wire.BeginFrame(c.wbuf[:0]), msgCancel), id)
	wire.EndFrame(c.wbuf)
	c.conn.Write(c.wbuf)
}

func (c *LoopbackClient) ApplyOp(req *shardhost.OpRequest, reply *shardhost.OpReply, done func()) {
	id := c.nextID.Add(1)
	cl := &call{typ: msgApplyOp, oreply: reply, done: done}
	c.send(id, cl, func(dst []byte) ([]byte, error) {
		return AppendOpRequest(dst, req)
	})
}

func (c *LoopbackClient) AppendWAL(epoch uint64, reply *shardhost.WALAppendReply, done func()) {
	id := c.nextID.Add(1)
	cl := &call{typ: msgAppendWAL, wreply: reply, done: done}
	c.send(id, cl, func(dst []byte) ([]byte, error) {
		return wire.AppendUvarint(dst, epoch), nil
	})
}

func (c *LoopbackClient) Sync(done func()) {
	id := c.nextID.Add(1)
	cl := &call{typ: msgSync}
	if done != nil {
		cl.done = done
	} else {
		cl.done = func() {}
	}
	c.send(id, cl, func(dst []byte) ([]byte, error) { return dst, nil })
}

func (c *LoopbackClient) Snapshot(epoch uint64, reply *shardhost.SnapshotReply, done func()) {
	id := c.nextID.Add(1)
	cl := &call{typ: msgSnapshot, snreply: reply, done: done}
	c.send(id, cl, func(dst []byte) ([]byte, error) {
		return wire.AppendUvarint(dst, epoch), nil
	})
}

func (c *LoopbackClient) Stats(reply *shardhost.StatsReply, done func()) {
	id := c.nextID.Add(1)
	cl := &call{typ: msgStats, streply: reply, done: done}
	c.send(id, cl, func(dst []byte) ([]byte, error) { return dst, nil })
}

// Close tears the connection down; in-flight calls complete with
// ErrClosed.
func (c *LoopbackClient) Close() error {
	c.fail(ErrClosed)
	<-c.readerDone
	return nil
}

// deliverErr completes a call that never reached (or never left) the
// wire.
func (c *LoopbackClient) deliverErr(cl *call, err error) {
	c.setErr(cl, err)
	if cl.stop != nil {
		cl.stop()
	}
	cl.done()
}

// setErr routes err into the reply slot the call's type uses.
// StatsReply and SnapshotReply carry transport failures in Err and
// RotateErr respectively; for Sync there is nowhere to put it — the
// sweep's effect is ordered by the call sequence, and a lost
// connection fails the surrounding batch through its other calls.
func (c *LoopbackClient) setErr(cl *call, err error) {
	switch cl.typ {
	case msgQuery:
		cl.qreply.Err = err
	case msgApplyOp:
		cl.oreply.ID = -1
		cl.oreply.Err = err
	case msgAppendWAL:
		cl.wreply.Err = err
	case msgSnapshot:
		cl.snreply.RotateErr = err
	case msgStats:
		cl.streply.Err = err
	}
}

// fail poisons the client: every pending call completes with err, the
// connection closes, and later sends fail fast.
func (c *LoopbackClient) fail(err error) {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return
	}
	c.closed = true
	calls := make([]*call, 0, len(c.pending))
	for _, cl := range c.pending {
		calls = append(calls, cl)
	}
	c.pending = make(map[uint64]*call)
	c.pmu.Unlock()
	c.conn.Close()
	for _, cl := range calls {
		c.deliverErr(cl, err)
	}
}

func (c *LoopbackClient) readLoop() {
	defer close(c.readerDone)
	for {
		payload, err := wire.ReadFrame(c.conn, 0)
		if err != nil {
			c.fail(fmt.Errorf("transport: shard %d connection read: %w", c.shard, err))
			return
		}
		d := wire.NewDec("transport", payload)
		if d.Byte() != msgReply {
			c.fail(fmt.Errorf("transport: shard %d: unexpected frame type", c.shard))
			return
		}
		id := d.Uvarint()
		typ := d.Byte()
		ql := d.Uvarint()
		pr := d.Uvarint()
		if d.Err() != nil {
			c.fail(d.Err())
			return
		}
		c.queueLen.Store(int64(ql))
		c.pendingRepairs.Store(int64(pr))
		c.pmu.Lock()
		cl := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if cl == nil {
			continue // reply to an abandoned call (e.g. an unregistered Sync)
		}
		if derr := c.decodeReply(typ, &d, cl); derr != nil {
			// A malformed reply means the stream itself can no longer be
			// trusted; fail the call and the connection with it.
			c.setErr(cl, derr)
			if cl.stop != nil {
				cl.stop()
			}
			cl.done()
			c.fail(derr)
			return
		}
		if cl.stop != nil {
			cl.stop()
		}
		cl.done()
	}
}

// decodeReply decodes one reply body into the call's reply struct.
func (c *LoopbackClient) decodeReply(typ byte, d *wire.Dec, cl *call) error {
	if typ != cl.typ {
		return fmt.Errorf("transport: shard %d: reply type %d for request type %d", c.shard, typ, cl.typ)
	}
	switch typ {
	case msgQuery:
		return DecodeQueryReply(d.Rest(), cl.qreply)
	case msgApplyOp:
		gid, werr := -1, decodeWireError(d)
		if werr == nil {
			gid = int(d.Uvarint())
		}
		if d.Err() != nil {
			return d.Err()
		}
		cl.oreply.ID, cl.oreply.Err = gid, werr
		return nil
	case msgAppendWAL:
		werr := decodeWireError(d)
		nanos := d.Duration()
		if d.Err() != nil {
			return d.Err()
		}
		cl.wreply.Err, cl.wreply.Nanos = werr, int64(nanos)
		return nil
	case msgSync:
		return nil
	case msgSnapshot:
		werr := decodeWireError(d)
		var payload []byte
		if d.Bool() {
			payload = d.Bytes()
		}
		if d.Err() != nil {
			return d.Err()
		}
		cl.snreply.RotateErr = werr
		cl.snreply.Payload = payload
		return nil
	case msgStats:
		werr := decodeWireError(d)
		var b []byte
		if werr == nil {
			b = d.Bytes()
		}
		if d.Err() != nil {
			return d.Err()
		}
		if werr != nil {
			cl.streply.Err = werr
			return nil
		}
		if jerr := json.Unmarshal(b, cl.streply); jerr != nil {
			return fmt.Errorf("transport: shard %d stats reply: %w", c.shard, jerr)
		}
		return nil
	}
	return fmt.Errorf("transport: shard %d: unknown reply type %d", c.shard, typ)
}
