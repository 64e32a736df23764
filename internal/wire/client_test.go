package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// ackServer answers every request on conn with a body-less StatusOK
// echoing its id and op, without allocating. The responses to all the
// requests one read brought in go back in one Write, counted in writes.
// It returns when conn closes.
func ackServer(conn net.Conn, writes *atomic.Int64) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var scratch, out []byte
	for {
		payload, ns, err := ReadFrame(br, scratch)
		scratch = ns
		if err != nil {
			return
		}
		out = AppendResponse(out, Response{Status: StatusOK, ID: binary.LittleEndian.Uint32(payload[1:]), Op: payload[0]})
		if br.Buffered() > 0 {
			continue
		}
		if writes != nil {
			writes.Add(1) // before the Write, which the client's Wait follows
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
		out = out[:0]
	}
}

// pipeClient returns a Client over one end of a net.Pipe whose other end
// ackServer answers, and the counter of the client's Reads. Cleanup
// closes both ends.
func pipeClient(tb testing.TB, writes *atomic.Int64) (*Client, *readCounter) {
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ackServer(srv, writes)
	}()
	rc := &readCounter{Conn: cli}
	c := NewClient(rc)
	tb.Cleanup(func() {
		_ = c.Close()
		_ = srv.Close()
		<-done
	})
	return c, rc
}

// readCounter counts the Reads that returned data.
type readCounter struct {
	net.Conn
	reads atomic.Int64
}

func (r *readCounter) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	if n > 0 {
		r.reads.Add(1)
	}
	return n, err
}

// TestClientDoAllocFree pins the steady-state cost of a key-only request:
// the Pending, its channel and the map entry are recycled, and frames are
// read into scratch, so a Do allocates nothing once the client is warm.
func TestClientDoAllocFree(t *testing.T) {
	c, _ := pipeClient(t, nil)
	req := Request{Op: OpInsert, Tenant: "tenant", Key: 42}
	do := func() {
		resp, err := c.Do(req)
		if err != nil || resp.Status != StatusOK || resp.Op != OpInsert {
			t.Fatalf("Do: %+v, %v", resp, err)
		}
	}
	for i := 0; i < 100; i++ {
		do()
	}
	if got := testing.AllocsPerRun(1000, do); got != 0 {
		t.Fatalf("Client.Do allocated %v times per call, want 0", got)
	}
}

// TestClientReadsPerBurst checks that a burst of pipelined responses
// arriving in one Write costs the client one Read, not two per frame.
func TestClientReadsPerBurst(t *testing.T) {
	const burst = 64
	var writes atomic.Int64
	c, rc := pipeClient(t, &writes)
	ps := make([]*Pending, 0, burst)
	for i := 0; i < burst; i++ {
		p, err := c.Start(Request{Op: OpInsert, Tenant: "t", Key: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if resp, err := p.Wait(); err != nil || resp.Status != StatusOK {
			t.Fatalf("wait %d: %+v, %v", i, resp, err)
		}
	}
	if w := writes.Load(); w != 1 {
		t.Fatalf("responder answered the burst in %d writes, want 1", w)
	}
	if r := rc.reads.Load(); r > 2 {
		t.Fatalf("client read %d responses with %d Reads, want <= 2", burst, r)
	}
}

// shuffleServer answers requests with responses whose contents derive
// from the request (Value = id·3 for Len, id·7 for ExtractMax; N keys
// id, id+1, ... for ExtractBatch), writing each burst back in a shuffled
// order. It answers the first answer requests only, then reads the rest
// without replying; answer < 0 answers all. It returns when conn closes.
func shuffleServer(conn net.Conn, seed uint64, answer int) {
	rng := rand.New(rand.NewPCG(seed, seed))
	br := bufio.NewReader(conn)
	var scratch, out []byte
	var resps []Response
	for n := 0; ; n++ {
		payload, ns, err := ReadFrame(br, scratch)
		scratch = ns
		if err != nil {
			return
		}
		req, err := ParseRequest(payload, nil)
		if err != nil {
			return
		}
		if answer >= 0 && n >= answer {
			continue
		}
		resp := Response{Status: StatusOK, ID: req.ID, Op: req.Op}
		switch req.Op {
		case OpLen:
			resp.Value = uint64(req.ID) * 3
		case OpExtractMax:
			resp.Value = uint64(req.ID) * 7
		case OpExtractBatch:
			for i := 0; i < req.N; i++ {
				resp.Keys = append(resp.Keys, uint64(req.ID)+uint64(i))
			}
		}
		resps = append(resps, resp)
		if br.Buffered() > 0 {
			continue
		}
		rng.Shuffle(len(resps), func(i, j int) { resps[i], resps[j] = resps[j], resps[i] })
		out = out[:0]
		for _, r := range resps {
			out = AppendResponse(out, r)
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
		resps = resps[:0]
	}
}

// checkResponse verifies that resp answers the request with id and op.
func checkResponse(resp Response, id uint32, op byte, n int) error {
	if resp.ID != id || resp.Op != op || resp.Status != StatusOK {
		return errors.New("response for another request")
	}
	switch op {
	case OpLen:
		if resp.Value != uint64(id)*3 {
			return errors.New("stale Len value")
		}
	case OpExtractMax:
		if resp.Value != uint64(id)*7 {
			return errors.New("stale ExtractMax value")
		}
	case OpExtractBatch:
		if len(resp.Keys) != n {
			return errors.New("wrong batch size")
		}
		for i, k := range resp.Keys {
			if k != uint64(id)+uint64(i) {
				return errors.New("stale batch keys")
			}
		}
	}
	return nil
}

// TestClientRecycledPendingConcurrent drives one client from several
// goroutines that Start bursts of mixed requests and Wait for them out of
// order while the server answers each burst shuffled. Every response
// must be its own request's, so a recycled Pending never delivers a
// response meant for its previous use. Run it under -race.
func TestClientRecycledPendingConcurrent(t *testing.T) {
	cli, srv := net.Pipe()
	go shuffleServer(srv, 1, -1)
	defer srv.Close()
	c := NewClient(cli)
	defer c.Close()

	const workers, rounds = 4, 200
	ops := []byte{OpInsert, OpLen, OpExtractMax, OpExtractBatch}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			type started struct {
				p  *Pending
				id uint32
				op byte
				n  int
			}
			var batch []started
			for r := 0; r < rounds; r++ {
				batch = batch[:0]
				for k := 1 + rng.IntN(8); k > 0; k-- {
					req := Request{Op: ops[rng.IntN(len(ops))], Tenant: "t", Key: uint64(r), N: 1 + rng.IntN(4)}
					p, err := c.Start(req)
					if err != nil {
						t.Errorf("worker %d: Start: %v", w, err)
						return
					}
					batch = append(batch, started{p: p, id: p.id, op: req.Op, n: req.N})
				}
				if err := c.Flush(); err != nil {
					t.Errorf("worker %d: Flush: %v", w, err)
					return
				}
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				for _, s := range batch {
					resp, err := s.p.Wait()
					if err != nil {
						t.Errorf("worker %d: Wait: %v", w, err)
						return
					}
					if err := checkResponse(resp, s.id, s.op, s.n); err != nil {
						t.Errorf("worker %d: request %d op %d: %v (got %+v)", w, s.id, s.op, err, resp)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestClientCloseFailsOutstanding answers half of a pipelined burst,
// then starts more requests on the recycled handles and closes the
// connection while they and the unanswered half are in flight: every
// outstanding Wait must fail, and none may return an earlier response.
func TestClientCloseFailsOutstanding(t *testing.T) {
	const n = 32
	cli, srv := net.Pipe()
	go shuffleServer(srv, 2, n)
	defer srv.Close()
	c := NewClient(cli)

	start := func(k int) []*Pending {
		ps := make([]*Pending, 0, k)
		for i := 0; i < k; i++ {
			p, err := c.Start(Request{Op: OpExtractMax, Tenant: "t"})
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return ps
	}
	answered := start(n)
	for i, p := range answered {
		id := p.id
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("answered request %d: %v", i, err)
		}
		if err := checkResponse(resp, id, OpExtractMax, 0); err != nil {
			t.Fatalf("answered request %d: %v (got %+v)", i, err, resp)
		}
	}
	// These reuse the handles just released; the server never answers them.
	outstanding := start(2 * n)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for _, p := range outstanding {
		wg.Add(1)
		go func(p *Pending) {
			defer wg.Done()
			if resp, err := p.Wait(); err == nil {
				t.Errorf("outstanding Wait returned %+v after Close", resp)
				return
			}
			failed.Add(1)
		}(p)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := failed.Load(); got != 2*n {
		t.Fatalf("%d of %d outstanding Waits failed", got, 2*n)
	}
	if _, err := c.Start(Request{Op: OpLen, Tenant: "t"}); err == nil {
		t.Fatal("Start succeeded on a closed client")
	}
}

// BenchmarkClientPipelined measures one request through Client with 64
// in flight: Start 64, Flush, Wait 64, against an in-process ack server
// over net.Pipe, so it counts the client's and the codec's work, not
// TCP's.
func BenchmarkClientPipelined(b *testing.B) {
	const depth = 64
	c, _ := pipeClient(b, nil)
	req := Request{Op: OpInsert, Tenant: "tenant", Key: 42}
	ps := make([]*Pending, 0, depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		ps = ps[:0]
		for j := 0; j < depth; j++ {
			p, err := c.Start(req)
			if err != nil {
				b.Fatal(err)
			}
			ps = append(ps, p)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		for _, p := range ps {
			if _, err := p.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFrames is a stream of n key-only insert responses.
func benchFrames(n int) []byte {
	var stream []byte
	for i := 0; i < n; i++ {
		stream = AppendResponse(stream, Response{Status: StatusOK, ID: uint32(i), Op: OpInsert})
	}
	return stream
}

// TestReadFrameAllocFree pins that ReadFrame on a warm scratch allocates
// nothing: the header lands in scratch, not in a local that escapes
// through the io.Reader call.
func TestReadFrameAllocFree(t *testing.T) {
	stream := benchFrames(1)
	rd := bytes.NewReader(stream)
	scratch := make([]byte, 0, 64)
	got := testing.AllocsPerRun(1000, func() {
		rd.Reset(stream)
		if _, _, err := ReadFrame(rd, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("ReadFrame allocated %v times per frame, want 0", got)
	}
}

// BenchmarkReadFrame measures framing, CRC check and response parse of
// one key-only response read from memory.
func BenchmarkReadFrame(b *testing.B) {
	const frames = 1024
	stream := benchFrames(frames)
	rd := bytes.NewReader(stream)
	var scratch []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(stream) / frames))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%frames == 0 {
			rd.Reset(stream)
		}
		payload, ns, err := ReadFrame(rd, scratch)
		scratch = ns
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ParseResponse(payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}
