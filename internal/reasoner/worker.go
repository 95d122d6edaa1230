// Worker side of the distributed reasoner: a transport.Handler that builds
// one group of reasoners per session (one R per hosted partition) and
// answers windows in wire form.
// Requests arrive as dictionary-coded deltas (protocol v2): the session
// mirrors the coordinator's request dictionary, reconstructs each
// partition's sub-window from its delta, reasons over the partitions in
// parallel, and ships back one worker-combined answer stream per window.

package reasoner

import (
	"fmt"

	"streamrule/internal/asp/ground"
	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/parser"
	"streamrule/internal/asp/solve"
	"streamrule/internal/dfp"
	"streamrule/internal/rdf"
	"streamrule/internal/transport"
)

// WorkerHandler builds reasoning sessions for transport.Server: each
// coordinator connection carries the program in its Hello and gets one
// private reasoner R per hosted partition (incremental and, when a budget
// is set, memory-bounded via session-coordinated rotation) plus the two
// wire dictionaries of the session (request decoder, response encoder).
// Workers are therefore program-agnostic processes — one worker can serve
// partitions of any number of programs and coordinators at once, one
// session each.
type WorkerHandler struct{}

// NewWorkerHandler returns the production session factory.
func NewWorkerHandler() *WorkerHandler { return &WorkerHandler{} }

// NewSession implements transport.Handler.
func (h *WorkerHandler) NewSession(hello *transport.Hello) (transport.Session, error) {
	prog, err := parser.Parse(hello.Program)
	if err != nil {
		return nil, fmt.Errorf("parse program: %w", err)
	}
	cfg := Config{
		Program:           prog,
		Inpre:             hello.Inpre,
		OutputPreds:       hello.OutputPreds,
		IncludeInputFacts: hello.IncludeInputFacts,
		SolveOpts:         solve.Options{MaxModels: hello.MaxModels, NaivePropagation: hello.NaivePropagation, CDNL: hello.CDNL},
		// The session's partition reasoners are one group on a private
		// table: sessions come and go with their coordinators, and their
		// vocabulary must not accrete in the process-wide default table.
		GroundOpts:        ground.Options{MaxAtoms: hello.MaxAtoms, Intern: intern.NewTable()},
		MemoryBudget:      hello.MemoryBudget,
		MemoryBudgetBytes: hello.MemoryBudgetBytes,
	}
	if len(hello.Arities) > 0 {
		cfg.Arities = dfp.Arities(hello.Arities)
	}
	n := max(hello.Partitions, 1)
	g, err := newGroup(cfg, n)
	if err != nil {
		return nil, err
	}
	return &workerSession{
		g:      g,
		enc:    intern.NewWireEncoder(),
		reqDec: intern.NewWireDecoder(nil),
		wins:   make([]partWindow, n),
	}, nil
}

// partWindow is one partition's maintained sub-window: the triples in
// shipped order plus their multiset (sliding windows may hold duplicates).
type partWindow struct {
	cur    []rdf.Triple
	counts map[rdf.Triple]int
}

// workerSession is one live session: a group of partition reasoners on a
// private table, the response-side wire encoder, the request-side wire
// decoder, and the maintained sub-windows the request deltas apply to. The
// transport serves sessions sequentially, so no locking is needed.
type workerSession struct {
	g      *group
	enc    *intern.WireEncoder
	reqDec *intern.WireDecoder
	wins   []partWindow
}

// desyncResp builds the teardown response for a request the session cannot
// apply consistently.
func desyncResp(seq uint64, err error) *transport.WindowResp {
	return &transport.WindowResp{Seq: seq, Err: err.Error(), Desync: true}
}

// applyPart reconstructs partition i's sub-window from its request payload.
// The delta is applied to the maintained multiset; any inconsistency (an
// unknown symbol index, retracting an absent triple, a window-length
// mismatch) is a desync. It returns the windower-style delta for the
// incremental path (nil for full windows).
func (s *workerSession) applyPart(i int, p *transport.PartReq) (*Delta, error) {
	w := &s.wins[i]
	added, err := s.decodeTriples(p.Added)
	if err != nil {
		return nil, err
	}
	retracted, err := s.decodeTriples(p.Retracted)
	if err != nil {
		return nil, err
	}
	if p.Full {
		if len(retracted) != 0 {
			return nil, fmt.Errorf("full window carries retractions")
		}
		w.cur = added
		w.counts = nil
		if len(w.cur) != p.WindowLen {
			return nil, fmt.Errorf("full window length %d, expected %d", len(w.cur), p.WindowLen)
		}
		return nil, nil
	}
	if w.counts == nil {
		w.counts = make(map[rdf.Triple]int, len(w.cur))
		for _, t := range w.cur {
			w.counts[t]++
		}
	}
	// Retract first (multiset): drop the retracted occurrences from the
	// ordered window, preserving the order of the survivors so partition
	// reasoning is deterministic.
	drop := make(map[rdf.Triple]int, len(retracted))
	for _, t := range retracted {
		if w.counts[t] == 0 {
			return nil, fmt.Errorf("retraction of absent triple %v", t)
		}
		w.counts[t]--
		if w.counts[t] == 0 {
			delete(w.counts, t)
		}
		drop[t]++
	}
	if len(drop) > 0 {
		kept := w.cur[:0]
		for _, t := range w.cur {
			if drop[t] > 0 {
				drop[t]--
				continue
			}
			kept = append(kept, t)
		}
		w.cur = kept
	}
	for _, t := range added {
		w.counts[t]++
	}
	w.cur = append(w.cur, added...)
	if len(w.cur) != p.WindowLen {
		return nil, fmt.Errorf("window length %d after delta, expected %d", len(w.cur), p.WindowLen)
	}
	return &Delta{Added: added, Retracted: retracted}, nil
}

// decodeTriples resolves wire-coded triples (three dictionary symbol
// indexes each) back to strings through the request dictionary.
func (s *workerSession) decodeTriples(words []uint64) ([]rdf.Triple, error) {
	if len(words)%3 != 0 {
		return nil, fmt.Errorf("wire triple stream of %d words", len(words))
	}
	out := make([]rdf.Triple, 0, len(words)/3)
	for i := 0; i < len(words); i += 3 {
		sub, err := s.reqDec.SymName(words[i])
		if err != nil {
			return nil, err
		}
		pred, err := s.reqDec.SymName(words[i+1])
		if err != nil {
			return nil, err
		}
		obj, err := s.reqDec.SymName(words[i+2])
		if err != nil {
			return nil, err
		}
		out = append(out, rdf.Triple{S: sub, P: pred, O: obj})
	}
	return out, nil
}

// Window implements transport.Session: apply the request deltas, process
// every partition with the full engine (incremental unless the coordinator
// forces from-scratch), combine the partitions' answers, re-key them into
// portable wire form, and rotate under the session budget.
func (s *workerSession) Window(req *transport.WindowReq) *transport.WindowResp {
	s.g.beginWindow()
	if err := s.reqDec.Apply(&req.Dict); err != nil {
		return desyncResp(req.Seq, err)
	}
	if len(req.Parts) != len(s.wins) {
		return desyncResp(req.Seq, fmt.Errorf("request carries %d partitions, session hosts %d", len(req.Parts), len(s.wins)))
	}
	deltas := make([]*Delta, len(req.Parts))
	parts := make([][]rdf.Triple, len(req.Parts))
	for i := range req.Parts {
		d, err := s.applyPart(i, &req.Parts[i])
		if err != nil {
			return desyncResp(req.Seq, fmt.Errorf("partition %d: %w", i, err))
		}
		deltas[i], parts[i] = d, s.wins[i].cur
	}

	outs, err := s.g.run(parts, nil, func(r *R, part []rdf.Triple, i int) (*Output, error) {
		switch {
		case req.Scratch:
			return r.Process(part)
		case deltas[i] != nil:
			return r.ProcessDelta(part, deltas[i])
		}
		// Full non-scratch window: self-diff against the maintained
		// grounding (seeds it on a session's first window).
		return r.ProcessAuto(part)
	})
	if err != nil {
		return &transport.WindowResp{Seq: req.Seq, Err: err.Error()}
	}
	// Worker-side combine: one answer stream per window regardless of how
	// many partitions the session hosts (unions are associative, so the
	// coordinator's combine across workers completes the cross product).
	m := merge(outs)
	resp := &transport.WindowResp{
		Seq:         req.Seq,
		Incremental: m.Incremental,
		GroundStats: m.GroundStats,
		SolveStats:  m.SolveStats,
		Skipped:     m.Skipped,
		ConvertNS:   m.Latency.Convert.Nanoseconds(),
		GroundNS:    m.Latency.Ground.Nanoseconds(),
		SolveNS:     m.Latency.Solve.Nanoseconds(),
		CombineNS:   m.Latency.Combine.Nanoseconds(),
		TotalNS:     m.Latency.Total.Nanoseconds(),
		PartTotalNS: make([]int64, len(outs)),
		PartItems:   make([]int, len(outs)),
	}
	for i, out := range outs {
		resp.PartTotalNS[i] = out.Latency.Total.Nanoseconds()
		resp.PartItems[i] = len(parts[i])
	}
	s.enc.Begin(s.g.tab)
	resp.Answers = make([]intern.WireSet, 0, len(m.Answers))
	for _, a := range m.Answers {
		resp.Answers = append(resp.Answers, s.enc.AppendSet(s.g.tab, a.IDs(), nil))
	}
	resp.Dict = s.enc.Flush()

	// Budget rotation after the answers left through the encoder (the
	// response no longer references table IDs, so none are kept live). The
	// encoder's ID caches invalidate themselves on the next Begin (the
	// content-keyed dictionary survives, nothing is re-shipped).
	s.g.endWindow(nil)
	ts := s.g.tab.Stats()
	resp.LiveAtoms = ts.Atoms
	resp.Rotations = ts.Rotations
	return resp
}

// Close implements transport.Session.
func (s *workerSession) Close() {}
