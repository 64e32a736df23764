package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// tracer times the server from outside: it wraps the listener handed to
// server.Serve, and every accepted connection records when the server's
// Read returned each request frame and when its Write began carrying each
// response frame, indexed by correlation id.
type tracer struct {
	clk   clock
	maxID int

	mu    sync.Mutex // guards conns
	conns []*tracedConn
}

// init sets the time base and the largest correlation id to record.
// Call it before the first connection is accepted.
func (t *tracer) init(clk clock, maxID int) { t.clk, t.maxID = clk, maxID }

// mark snapshots every connection's read and write counts at the start of
// the measured phases.
func (t *tracer) mark() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		c.reads0, c.writes0 = c.reads.Load(), c.writes.Load()
	}
}

// conn returns the server side of the connection whose client end is at
// addr, or nil.
func (t *tracer) conn(addr string) *tracedConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		if c.RemoteAddr().String() == addr {
			return c
		}
	}
	return nil
}

type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{
		Conn:    c,
		clk:     l.tr.clk,
		readAt:  make([]int64, l.tr.maxID+1),
		writeAt: make([]int64, l.tr.maxID+1),
	}
	l.tr.mu.Lock()
	l.tr.conns = append(l.tr.conns, tc)
	l.tr.mu.Unlock()
	return tc, nil
}

// tracedConn is the server side of one connection. Only the server's read
// loop calls Read and only its writer calls Write, so each side's scanner
// and timestamp table has a single writer; the benchmark reads them after
// the server has stopped.
type tracedConn struct {
	net.Conn
	clk     clock
	in, out frameScanner
	readAt  []int64 // by request id: when the Read carrying its last byte returned
	writeAt []int64 // by response id: when the Write carrying its last byte began

	reads, writes   atomic.Int64
	reads0, writes0 int64 // counts at the start of the measured phases
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	c.in.scan(p[:n], c.clk.now(), c.readAt)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.out.scan(p, c.clk.now(), c.writeAt)
	return c.Conn.Write(p)
}

// frameScanner follows frame boundaries in a byte stream (see package
// wire: an 8-byte header holding the payload length, then a payload whose
// bytes 1..4 are the correlation id in requests and responses alike).
type frameScanner struct {
	hdr  [wire.HeaderSize]byte
	hn   int // header bytes seen
	left int // payload bytes still to come
	pre  [5]byte
	pn   int // payload prefix bytes seen
}

// scan consumes b and stamps at[id] = t for every frame completed in it.
func (s *frameScanner) scan(b []byte, t int64, at []int64) {
	for len(b) > 0 {
		if s.hn < wire.HeaderSize {
			k := copy(s.hdr[s.hn:], b)
			s.hn += k
			b = b[k:]
			if s.hn == wire.HeaderSize {
				s.left, s.pn = int(binary.LittleEndian.Uint32(s.hdr[:])), 0
			}
			continue
		}
		k := min(len(b), s.left)
		s.pn += copy(s.pre[s.pn:], b[:k])
		s.left -= k
		b = b[k:]
		if s.left == 0 {
			if id := int(binary.LittleEndian.Uint32(s.pre[1:])); s.pn == len(s.pre) && id < len(at) {
				at[id] = t
			}
			s.hn = 0
		}
	}
}

// spans is the partition of the traced phase A round trips. Each request
// is cut at six timestamps into consecutive spans:
//
//	gen      scheduled send time → generator calls Client.Start
//	wire     Client.Start (frame encoding into the write buffer)
//	flush    Start returned → the Client.Flush that carried it returned
//	tcpIn    Flush returned → the server's Read carrying the frame returned
//	server   that Read returned → the server's Write carrying the response began
//	tcpOut   that Write began → Pending.Wait returned
//
// Requests missing a server timestamp stay whole in the unattributed
// remainder.
type spans struct {
	gen, wire, flush, tcpIn, server, tcpOut []int64
	totalNs, attributedNs                   int64
	requests                                int
}

// spansOf cuts every answered phase A request of res into spans.
func spansOf(res *passResult, conns []*tracedConn) spans {
	var sp spans
	for c, ops := range res.streams {
		tc := conns[c]
		for i := range ops {
			o := &ops[i]
			if o.done == 0 {
				continue
			}
			sp.requests++
			sp.totalNs += o.done - o.sched
			id := res.idBase[c] + i + 1
			if tc == nil || id >= len(tc.readAt) || tc.readAt[id] == 0 || tc.writeAt[id] == 0 {
				continue
			}
			r, w := tc.readAt[id], tc.writeAt[id]
			sp.gen = append(sp.gen, o.sendStart-o.sched)
			sp.wire = append(sp.wire, o.started-o.sendStart)
			sp.flush = append(sp.flush, o.flushed-o.started)
			sp.tcpIn = append(sp.tcpIn, r-o.flushed)
			sp.server = append(sp.server, w-r)
			sp.tcpOut = append(sp.tcpOut, o.done-w)
			sp.attributedNs += o.done - o.sched
		}
	}
	return sp
}
