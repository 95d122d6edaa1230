package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"streamrule"
	"streamrule/internal/asp/intern"
	"streamrule/internal/bench"
	"streamrule/internal/rdf"
	"streamrule/internal/reasoner"
	"streamrule/internal/transport"
	"streamrule/internal/workload"
)

// wireCounters counts the coordinator's socket traffic and the time its
// Write and Read calls take (Read time is mostly waiting for a response).
type wireCounters struct {
	written, read         atomic.Int64
	writeNanos, readNanos atomic.Int64
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.c.writeNanos.Add(int64(time.Since(t0)))
	c.c.written.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.c.readNanos.Add(int64(time.Since(t0)))
	c.c.read.Add(int64(n))
	return n, err
}

func (w *wireCounters) dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: w}, nil
}

// workerCall is one transport.Session.Window call on a worker.
type workerCall struct {
	start, end             time.Time
	convert, ground, solve time.Duration
	incremental            bool
}

// workerLog records every Window call of every session a worker hosts, per
// session in arrival order.
type workerLog struct {
	mu       sync.Mutex
	sessions [][]workerCall
}

func (l *workerLog) reset() {
	l.mu.Lock()
	l.sessions = nil
	l.mu.Unlock()
}

// take returns and clears the calls recorded so far.
func (l *workerLog) take() [][]workerCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]workerCall, len(l.sessions))
	for i, s := range l.sessions {
		out[i] = s
		l.sessions[i] = nil
	}
	return out
}

// timedHandler wraps the production worker handler and times each
// session's Window calls.
type timedHandler struct {
	inner transport.Handler
	log   *workerLog
}

func (h *timedHandler) NewSession(hello *transport.Hello) (transport.Session, error) {
	s, err := h.inner.NewSession(hello)
	if err != nil {
		return nil, err
	}
	h.log.mu.Lock()
	idx := len(h.log.sessions)
	h.log.sessions = append(h.log.sessions, nil)
	h.log.mu.Unlock()
	return &timedSession{inner: s, log: h.log, idx: idx}, nil
}

type timedSession struct {
	inner transport.Session
	log   *workerLog
	idx   int
}

func (s *timedSession) Window(req *transport.WindowReq) *transport.WindowResp {
	t0 := time.Now()
	resp := s.inner.Window(req)
	c := workerCall{
		start: t0, end: time.Now(),
		convert: time.Duration(resp.ConvertNS), ground: time.Duration(resp.GroundNS), solve: time.Duration(resp.SolveNS),
		incremental: resp.Incremental,
	}
	s.log.mu.Lock()
	if s.idx < len(s.log.sessions) {
		s.log.sessions[s.idx] = append(s.log.sessions[s.idx], c)
	}
	s.log.mu.Unlock()
	return resp
}

func (s *timedSession) Close() { s.inner.Close() }

// worker is the surface shared by streamrule.WorkerServer and
// transport.Server.
type worker interface {
	Addr() string
	Serve() error
	Close() error
}

// runFig7 is the paper's Fig 7 program P on 10k/1k sliding windows, served
// by DistributedEngine over two in-process loopback workers with two
// windows in flight.
func runFig7(cfg runConfig) (*runOut, error) {
	o := newRunOut()
	wire := &wireCounters{}
	wlog := &workerLog{}
	var workers []worker
	var served sync.WaitGroup
	defer func() {
		for _, w := range workers {
			w.Close()
		}
		served.Wait()
	}()
	for i := 0; i < 2; i++ {
		var w worker
		var err error
		if cfg.trace {
			w, err = transport.NewServer("127.0.0.1:0", &timedHandler{inner: reasoner.NewWorkerHandler(), log: wlog}, transport.ServerOptions{})
		} else {
			w, err = streamrule.NewWorkerServer("127.0.0.1:0")
		}
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
		served.Add(1)
		go func() {
			defer served.Done()
			if err := w.Serve(); err != nil && !errors.Is(err, net.ErrClosed) {
				// Windows the worker cannot serve fall back and count as failed.
				fmt.Fprintln(os.Stderr, "perfbench: worker:", err)
			}
		}()
	}
	addrs := []string{workers[0].Addr(), workers[1].Addr()}
	opts := []streamrule.Option{streamrule.WithMaxInFlight(2), streamrule.WithOutputPredicates(bench.Outputs...)}
	if cfg.trace {
		opts = append(opts, streamrule.WithDialer(wire.dial))
	}

	var prog *streamrule.Program
	var eng *streamrule.DistributedEngine
	setup, err := timeSetup(setupReps, func() error {
		if eng != nil {
			eng.Close()
		}
		wlog.reset()
		var err error
		if prog, err = streamrule.LoadProgram(bench.ProgramP, bench.Inpre); err != nil {
			return err
		}
		eng, err = streamrule.NewDistributedEngine(prog, addrs, opts...)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	o.e2e["setup_s"] = setup
	if cfg.trace {
		if _, err := analyzeCore(o, prog); err != nil {
			return nil, err
		}
	}

	ch, err := newChunker(cfg.seed, workload.PaperTraffic(), fig7Size, fig7Step, fig7ChunkWindows)
	if err != nil {
		return nil, err
	}
	o.layer["intern.atoms_start"] = float64(intern.Default().Stats().Atoms)
	pipe := &pipeStamper{stamper: stamper{inner: eng}, pipe: eng}
	a := acc{}
	incremental := 0
	var fallbacks int64
	ts0 := eng.TransportStats()
	w0, r0 := wire.written.Load(), wire.read.Load()
	wn0, rn0 := wire.writeNanos.Load(), wire.readNanos.Load()
	loop := &closedLoop{cfg: cfg, windows: nominalWindows(cfg, fig7NominalRate, fig7Step), ch: ch, st: &pipe.stamper, pipe: pipe}
	var outs []*reasoner.Output // this chunk's outputs (traced runs)
	var handled []time.Time
	tr := &idTranslator{}
	loop.onWin = func(rec *windowRec, win []rdf.Triple, out *reasoner.Output) {
		rec.digest = tr.digest(out.Answers)
		a.noteOutput(len(win), out)
		if out.Incremental {
			incremental++
		}
		// A partition answered by the coordinator's local fallback counts
		// the window as failed: the workload measures the remote path.
		if fb := eng.TransportStats().LocalFallbacks; fb != fallbacks {
			fallbacks = fb
			rec.failed = true
		}
		if cfg.trace {
			outs = append(outs, out)
			handled = append(handled, time.Now())
		}
	}
	var legs legTotals
	loop.onChunk = func() {
		if cfg.trace {
			legs.add(pipe, wlog.take(), outs, handled)
		}
		outs, handled = outs[:0], handled[:0]
	}
	if err := loop.run(); err != nil {
		return nil, err
	}
	loop.report(o)
	n := len(loop.recs)
	ts := eng.TransportStats()
	putTable(o, eng.Stats().Table)
	if ts.RemoteWindows-ts0.RemoteWindows <= 0 {
		o.problem("no window was answered remotely")
	}
	if share := float64(incremental) / float64(max(n, 1)); share <= 0.9 {
		o.problem("only %.2f of the windows were maintained incrementally (want > 0.9)", share)
	}
	if err := loop.checkReference(o, bench.ProgramP, nil); err != nil {
		return nil, err
	}
	if cfg.trace {
		a.perWindow(o, n)
		legs.report(o)
		perWin := func(v int64) float64 { return float64(v) / float64(max(n, 1)) }
		o.layer["transport.req_bytes_per_window"] = perWin(wire.written.Load() - w0)
		o.layer["transport.resp_bytes_per_window"] = perWin(wire.read.Load() - r0)
		o.layer["transport.write_ms"] = perWin(wire.writeNanos.Load()-wn0) / 1e6
		o.layer["transport.read_wait_ms"] = perWin(wire.readNanos.Load()-rn0) / 1e6
		o.layer["transport.dict_hit_rate"] = ts.DictHitRate()
		o.layer["transport.fallbacks"] = float64(ts.LocalFallbacks - ts0.LocalFallbacks)
		o.layer["transport.redials"] = float64(ts.Redials - ts0.Redials)
		if rounds := ts.Rounds - ts0.Rounds; rounds > 0 {
			o.layer["dpr.in_flight_mean"] = float64(ts.InFlightSum-ts0.InFlightSum) / float64(rounds)
		}
	}
	return o, nil
}

// legTotals accumulates the traced DPR run's per-window legs. For window k
// the benchmark holds: Submit start/end, each worker session's k-th Window
// call start/end, Collect start/end, and the handler's delivery time. The
// critical session is the one that finished last. The spans are
//
//	submit          Submit call (partition, encode, write)
//	worker_queue    Submit end → the critical worker finishing window k-1
//	wire_request    the later of the two → critical worker's Window start
//	worker          critical worker's Window call
//	pipeline_wait   worker end → Collect start (window k waits for the
//	                submission of window k+1 before it is collected)
//	wire_response   max(worker end, Collect start) → Collect end: response
//	                transit, decode and cross-worker combine
//
// and the remainder is the rest of Submit start → delivery.
type legTotals struct {
	windows                                        int
	submit, queue, wireReq, worker, wait, wireResp float64
	collect, latency, explained                    float64
	convert, groundScratch, groundUpdate, solve    float64
	partition, combine                             float64
}

func (t *legTotals) add(p *pipeStamper, calls [][]workerCall, outs []*reasoner.Output, handled []time.Time) {
	for k := range outs {
		if k >= len(p.submitEnd) || k >= len(p.collectEnd) {
			break
		}
		crit := -1
		for s := range calls {
			if k >= len(calls[s]) {
				continue
			}
			c := calls[s][k]
			if crit < 0 || c.end.After(calls[crit][k].end) {
				crit = s
			}
			t.convert += ms(c.convert)
			t.solve += ms(c.solve)
			if c.incremental {
				t.groundUpdate += ms(c.ground)
			} else {
				t.groundScratch += ms(c.ground)
			}
		}
		if crit < 0 {
			continue
		}
		c := calls[crit][k]
		t0, t1 := p.starts[k], p.submitEnd[k]
		c0, c1 := p.collectStart[k], p.collectEnd[k]
		sent := t1
		if k > 0 && calls[crit][k-1].end.After(sent) {
			sent = calls[crit][k-1].end
		}
		ready := c.end
		if c0.After(ready) {
			ready = c0
		}
		spans := []float64{ms(t1.Sub(t0)), ms(sent.Sub(t1)), ms(c.start.Sub(sent)), ms(c.end.Sub(c.start)), ms(ready.Sub(c.end)), ms(c1.Sub(ready))}
		t.windows++
		t.submit += spans[0]
		t.queue += spans[1]
		t.wireReq += spans[2]
		t.worker += spans[3]
		t.wait += spans[4]
		t.wireResp += spans[5]
		for _, v := range spans {
			t.explained += v
		}
		t.collect += ms(c1.Sub(c0))
		t.latency += ms(handled[k].Sub(t0))
		t.partition += ms(outs[k].Latency.Partition)
		t.combine += ms(outs[k].Latency.Combine)
	}
}

func (t *legTotals) report(o *runOut) {
	n := float64(max(t.windows, 1))
	o.layer["dpr.submit_ms"] = t.submit / n
	o.layer["dpr.worker_queue_ms"] = t.queue / n
	o.layer["dpr.wire_request_ms"] = t.wireReq / n
	o.layer["dpr.worker_ms"] = t.worker / n
	o.layer["dpr.pipeline_wait_ms"] = t.wait / n
	o.layer["dpr.wire_response_ms"] = t.wireResp / n
	o.layer["dpr.collect_ms"] = t.collect / n
	o.layer["dfp.convert_ms"] = t.convert / n
	o.layer["ground.scratch_ms"] = t.groundScratch / n
	o.layer["ground.update_ms"] = t.groundUpdate / n
	o.layer["solve.solve_ms"] = t.solve / n
	o.layer["reasoner.partition_ms"] = t.partition / n
	o.layer["reasoner.combine_ms"] = t.combine / n
	if t.latency > 0 {
		o.layer["trace.remainder_share"] = 1 - t.explained/t.latency
	}
}
