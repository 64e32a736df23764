package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
)

// Client speaks the wire protocol over one connection. It pipelines:
// Start frames a request into the connection's write buffer without
// flushing, so consecutive Starts travel (and arrive at the server) back
// to back — which is exactly the pattern the server's connection-level
// coalescer turns into one InsertBatch. Flush pushes the buffer; Do is
// the one-shot Start+Flush+wait convenience.
//
// A background read loop routes responses to waiters by correlation id,
// so a Client is safe for concurrent use and responses may be awaited in
// any order. The read loop reads through a 64 KiB buffer, so a burst of
// pipelined responses costs one read(2), not two per frame; and the
// per-request handles are recycled (see Pending), so a steady stream of
// key-only requests allocates nothing.
//
// Writers serialize on wmu, which is held across socket writes; the read
// loop routes responses under mu, which never is. So a Flush blocked on
// a full socket never stops the responses that would drain the server.
type Client struct {
	conn net.Conn

	wmu    sync.Mutex // guards bw, buf, nextID
	bw     *bufio.Writer
	buf    []byte // AppendRequest scratch
	nextID uint32

	mu      sync.Mutex // guards pending, free, err
	pending map[uint32]*Pending
	free    []*Pending // handles returned by Wait, reused by Start
	err     error      // sticky: first read-loop or write failure

	done chan struct{}
}

// Pending is an in-flight request handle returned by Start. Call Wait
// exactly once and do not use the handle afterwards: a Wait that
// receives its response hands the handle back to the Client, which
// reuses it for a later Start.
type Pending struct {
	c  *Client
	ch chan Response // carries this request's one response
	id uint32
}

// Dial connects to a zmsqd server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection. The Client owns conn and
// closes it on Close or on the first protocol/transport error.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: make(map[uint32]*Pending),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Start frames r into the write buffer — without flushing — and returns
// a handle to await the response. The request's ID field is assigned by
// the client; any value the caller set is overwritten.
func (c *Client) Start(r Request) (*Pending, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nextID++
	r.ID = c.nextID
	var err error
	if c.buf, err = AppendRequest(c.buf[:0], r); err != nil {
		return nil, err
	}
	// Register before writing: a full buffer flushes inside Write, and
	// the response may then arrive before Write returns.
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	var p *Pending
	if n := len(c.free); n > 0 {
		p, c.free = c.free[n-1], c.free[:n-1]
	} else {
		p = &Pending{c: c, ch: make(chan Response, 1)}
	}
	p.id = r.ID
	c.pending[r.ID] = p
	c.mu.Unlock()
	if _, err := c.bw.Write(c.buf); err != nil {
		return nil, c.fail(err)
	}
	return p, nil
}

// Flush pushes every Started request to the server.
func (c *Client) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.fail(nil); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	return nil
}

// Wait blocks until the response arrives (or the connection dies). It
// may be called once per handle; on success the handle goes back to the
// Client for reuse, so p must not be touched after Wait returns.
func (p *Pending) Wait() (Response, error) {
	select {
	case r := <-p.ch:
		p.release()
		return r, nil
	case <-p.c.done:
		// Drain a response that raced with the shutdown.
		select {
		case r := <-p.ch:
			p.release()
			return r, nil
		default:
		}
		err := p.c.fail(nil)
		if err == nil {
			err = io.ErrClosedPipe
		}
		return Response{}, err
	}
}

// release returns a handle whose response has been received to the free
// list. The read loop removed it from pending before sending, so no
// further response can reach it until Start hands it out again.
func (p *Pending) release() {
	p.c.mu.Lock()
	p.c.free = append(p.c.free, p)
	p.c.mu.Unlock()
}

// Do sends r and waits for its response: Start + Flush + Wait.
func (c *Client) Do(r Request) (Response, error) {
	p, err := c.Start(r)
	if err != nil {
		return Response{}, err
	}
	if err := c.Flush(); err != nil {
		return Response{}, err
	}
	return p.Wait()
}

// Close tears the connection down; in-flight Waits fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// fail records err unless an earlier error stuck, and returns the sticky
// error; fail(nil) only reads it. Waiters wake when the read loop exits.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	return c.err
}

func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var scratch []byte
	var keys []uint64
	for {
		payload, ns, err := ReadFrame(br, scratch)
		scratch = ns
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			c.fail(err)
			_ = c.conn.Close()
			return
		}
		resp, err := ParseResponse(payload, keys[:0])
		if err != nil {
			c.fail(err)
			_ = c.conn.Close()
			return
		}
		// The response escapes to a waiter; detach it from the scratch
		// buffers before the next frame overwrites them.
		if len(resp.Keys) > 0 {
			resp.Keys = append([]uint64(nil), resp.Keys...)
		}
		if len(resp.Blob) > 0 {
			resp.Blob = append([]byte(nil), resp.Blob...)
		}
		if resp.Payload != nil {
			resp.Payload = append([]byte{}, resp.Payload...)
		}
		if resp.Payloads != nil {
			for i, v := range resp.Payloads {
				resp.Payloads[i] = append([]byte{}, v...)
			}
		}
		c.mu.Lock()
		p, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("%w: response for unknown request id %d", ErrProto, resp.ID))
			_ = c.conn.Close()
			return
		}
		p.ch <- resp
	}
}
