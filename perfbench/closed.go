package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"streamrule"
	"streamrule/internal/asp/intern"
	"streamrule/internal/bench"
	"streamrule/internal/core"
	"streamrule/internal/rdf"
	"streamrule/internal/reasoner"
	"streamrule/internal/workload"
)

// The closed-loop workloads: one caller, an unpaced source, every window
// waiting on the previous one.
const (
	fig9Size, fig9Step = 20000, 20000
	fig7Size, fig7Step = 10000, 1000
	// Windows per Pipeline.Run call. The stream is generated a chunk at a
	// time, outside the timed region, so memory stays flat however long a
	// run is. Tumbling windows are unaffected by chunking; a sliding chunk
	// starts with the previous chunk's overlap, so its first window is the
	// one the stream would emit next, but it reaches the engine without a
	// delta (one from-scratch window per chunk).
	fig9ChunkWindows = 5
	fig7ChunkWindows = 250
	setupReps        = 51
	// Each run processes a fixed number of windows: --seconds times these
	// nominal rates (about the rates measured at the seed on a 2-core
	// host), so that successive versions of the code do the same work and
	// retain comparable state however fast they are. A run that takes more
	// than three times --seconds stops early.
	fig9NominalRate = 200000
	fig7NominalRate = 70000
)

var errStop = errors.New("timed region over")

// chunker cuts an itemStream into consecutive Pipeline.Run inputs of
// `windows` count windows each.
type chunker struct {
	s                   *itemStream
	specs               []workload.TripleSpec
	size, step, windows int
	carry               []rdf.Triple
	started             bool
}

func newChunker(seed int64, specs []workload.TripleSpec, size, step, windows int) (*chunker, error) {
	s, err := newItemStream(seed, specs, size)
	if err != nil {
		return nil, err
	}
	return &chunker{s: s, specs: specs, size: size, step: step, windows: windows}, nil
}

func (c *chunker) next() []rdf.Triple {
	n := c.size + (c.windows-1)*c.step
	chunk := make([]rdf.Triple, 0, n)
	if c.started {
		chunk = append(chunk, c.carry...)
	}
	chunk = c.s.next(chunk, n-len(chunk))
	c.carry = slices.Clone(chunk[len(chunk)-(c.size-c.step):])
	c.started = true
	return chunk
}

// window returns the m-th count window of a chunk.
func (c *chunker) window(chunk []rdf.Triple, m int) []rdf.Triple {
	return chunk[m*c.step : m*c.step+c.size]
}

// stamper wraps the engine under test and stamps the moment the pipeline
// hands it each window (Reason/ReasonDelta, or Submit when pipelined).
type stamper struct {
	inner  streamrule.Reasoner
	starts []time.Time
	// inEngine sums the time spent in engine calls.
	inEngine time.Duration
}

func (s *stamper) Reason(w []rdf.Triple) (*reasoner.Output, error) {
	t0 := time.Now()
	s.starts = append(s.starts, t0)
	out, err := s.inner.Reason(w)
	s.inEngine += time.Since(t0)
	return out, err
}

func (s *stamper) ReasonDelta(w []rdf.Triple, d *reasoner.Delta) (*reasoner.Output, error) {
	dr, ok := s.inner.(streamrule.DeltaReasoner)
	if !ok {
		return s.Reason(w)
	}
	t0 := time.Now()
	s.starts = append(s.starts, t0)
	out, err := dr.ReasonDelta(w, d)
	s.inEngine += time.Since(t0)
	return out, err
}

// pipeStamper is stamper for a PipelinedReasoner. It also keeps the
// Submit and Collect boundaries, for the traced run's wire legs.
type pipeStamper struct {
	stamper
	pipe                     streamrule.PipelinedReasoner
	submitEnd                []time.Time
	collectStart, collectEnd []time.Time
}

func (s *pipeStamper) Submit(w []rdf.Triple, d *reasoner.Delta) error {
	t0 := time.Now()
	s.starts = append(s.starts, t0)
	err := s.pipe.Submit(w, d)
	t1 := time.Now()
	s.submitEnd = append(s.submitEnd, t1)
	s.inEngine += t1.Sub(t0)
	return err
}

func (s *pipeStamper) Collect() (*reasoner.Output, error) {
	t0 := time.Now()
	out, err := s.pipe.Collect()
	t1 := time.Now()
	s.collectStart = append(s.collectStart, t0)
	s.collectEnd = append(s.collectEnd, t1)
	s.inEngine += t1.Sub(t0)
	return out, err
}

func (s *pipeStamper) InFlight() int      { return s.pipe.InFlight() }
func (s *pipeStamper) PipelineDepth() int { return s.pipe.PipelineDepth() }

func (s *pipeStamper) reset() {
	s.starts, s.submitEnd, s.collectStart, s.collectEnd = s.starts[:0], s.submitEnd[:0], s.collectStart[:0], s.collectEnd[:0]
}

// windowRec is what the timed region keeps per window.
type windowRec struct {
	chunk, index int // chunk number and window index within the chunk
	latency      float64
	digest       uint64
	failed       bool
}

// closedLoop runs the timed region: chunks through Pipeline.Run until
// `windows` windows are handled. onWin sees every window after its latency
// is stamped.
type closedLoop struct {
	cfg     runConfig
	windows int
	ch      *chunker
	st      *stamper
	pipe    *pipeStamper // st's pipelined form, when the engine pipelines
	onWin   func(rec *windowRec, win []rdf.Triple, out *reasoner.Output)
	onChunk func() // after each chunk's Run, outside the timed region

	recs []windowRec
	// wall sums, over chunks, Run start .. last handled window; engine and
	// handler are the parts of it spent in engine calls and in the handler.
	wall, engine, handler time.Duration
	rt                    rtCounters
	chunks                int
	baseHeap              float64
	endHeap               float64
}

func (l *closedLoop) run() error {
	budget := time.Duration(3 * l.cfg.seconds * float64(time.Second))
	chunk := l.ch.next()
	l.baseHeap = liveHeapMB()
	var reasonerUT streamrule.Reasoner = l.st
	if l.pipe != nil {
		reasonerUT = l.pipe
	}
	for {
		if l.pipe != nil {
			l.pipe.reset()
		} else {
			l.st.starts = l.st.starts[:0]
		}
		k := 0
		var runStart, last time.Time
		p := &streamrule.Pipeline{Source: chunk, WindowSize: l.ch.size, WindowStep: l.ch.step, Reasoner: reasonerUT}
		rt0 := readRuntime()
		runStart = time.Now()
		err := p.Run(context.Background(), func(win []rdf.Triple, out *reasoner.Output) error {
			now := time.Now()
			rec := windowRec{chunk: l.chunks, index: k, latency: ms(now.Sub(l.st.starts[k]))}
			l.onWin(&rec, win, out)
			l.recs = append(l.recs, rec)
			k++
			last = time.Now()
			l.handler += last.Sub(now)
			l.engine = l.st.inEngine
			if len(l.recs) >= l.windows || l.wall+last.Sub(runStart) >= budget {
				return errStop
			}
			return nil
		})
		l.rt.add(readRuntime().sub(rt0))
		l.wall += last.Sub(runStart)
		l.chunks++
		if l.onChunk != nil {
			l.onChunk()
		}
		if errors.Is(err, errStop) {
			break
		}
		if err != nil {
			return err
		}
		chunk = l.ch.next()
	}
	l.endHeap = liveHeapMB()
	return nil
}

func (l *closedLoop) latencies() []float64 {
	lat := make([]float64, len(l.recs))
	for i, r := range l.recs {
		lat[i] = r.latency
	}
	return lat
}

// report stores the end-to-end metrics of the timed region.
func (l *closedLoop) report(o *runOut) {
	for _, r := range l.recs {
		if r.failed {
			o.failed++
		}
	}
	o.attempted = len(l.recs)
	o.putLatencies(l.latencies())
	o.e2e["items_per_s"] = float64(len(l.recs)*l.ch.step) / l.wall.Seconds()
	o.e2e["heap_retained_mb"] = l.endHeap - l.baseHeap
	o.putRuntime(l.rt, len(l.recs))
	// The stream layer's time: what the pipeline spends windowing between
	// engine calls.
	o.layer["stream.window_ms"] = ms(l.wall-l.engine-l.handler) / float64(max(len(l.recs), 1))
	o.layer["failed_share"] = float64(o.failed) / float64(max(o.attempted, 1))
}

// checkReference regenerates the timed windows from the seed and compares
// each window's answers with from-scratch R (Engine.Reason) on the same
// window, on two goroutines sharing the default interning table. visit, if
// set, sees every regenerated window after the comparison (sequentially).
func (l *closedLoop) checkReference(o *runOut, program string, visit func(k int, win []rdf.Triple) error) error {
	ch, err := newChunker(l.cfg.seed, l.ch.specs, l.ch.size, l.ch.step, l.ch.windows)
	if err != nil {
		return err
	}
	prog, err := streamrule.LoadProgram(program, bench.Inpre)
	if err != nil {
		return err
	}
	mismatches := 0
	k := 0
	for c := 0; c < l.chunks; c++ {
		chunk := ch.next()
		var batch []int
		for k+len(batch) < len(l.recs) && l.recs[k+len(batch)].chunk == c {
			batch = append(batch, k+len(batch))
		}
		got := make([]uint64, len(batch))
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ref, err := streamrule.NewEngine(prog, streamrule.WithOutputPredicates(bench.Outputs...))
				if err != nil {
					errs[g] = err
					return
				}
				for j := g; j < len(batch); j += 2 {
					out, err := ref.Reason(ch.window(chunk, l.recs[batch[j]].index))
					if err != nil {
						errs[g] = err
						return
					}
					got[j] = (&idTranslator{}).digest(out.Answers)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		for j, idx := range batch {
			rec := &l.recs[idx]
			if got[j] != rec.digest {
				mismatches++
				if !rec.failed {
					rec.failed = true
					o.failed++
				}
			}
			if visit != nil {
				if err := visit(idx, ch.window(chunk, rec.index)); err != nil {
					return err
				}
			}
		}
		k += len(batch)
	}
	if mismatches > 0 {
		o.problem("%d of %d windows differ from the reference", mismatches, len(l.recs))
	}
	o.layer["failed_share"] = float64(o.failed) / float64(max(o.attempted, 1))
	return nil
}

// analyzeCore times the design-time analysis the engines run at
// construction and stores the plan's shape.
func analyzeCore(o *runOut, prog *streamrule.Program) (*core.Plan, error) {
	var a *core.Analysis
	t, err := timeSetup(setupReps, func() error {
		var err error
		a, err = core.Analyze(prog.AST, prog.Inpre, 1.0)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.layer["core.analyze_ms"] += t * 1000
	o.layer["core.communities"] += float64(a.Plan.NumPartitions())
	o.layer["core.duplicated_preds"] += float64(len(a.Plan.Duplicated))
	return a.Plan, nil
}

func putTable(o *runOut, st intern.TableStats) {
	o.layer["intern.atoms_end"] += float64(st.Atoms)
	o.layer["intern.rotations"] += float64(st.Rotations)
	o.layer["intern.remap_ms"] += ms(st.RemapTime)
}

// runFig9 is the paper's Fig 9: program P', 20k tumbling windows, PR_Dep.
func runFig9(cfg runConfig) (*runOut, error) {
	o := newRunOut()
	var prog *streamrule.Program
	var eng *streamrule.ParallelEngine
	setup, err := timeSetup(setupReps, func() error {
		var err error
		if prog, err = streamrule.LoadProgram(bench.ProgramPPrime, bench.Inpre); err != nil {
			return err
		}
		eng, err = streamrule.NewParallelEngine(prog, streamrule.WithOutputPredicates(bench.Outputs...))
		return err
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup

	ch, err := newChunker(cfg.seed, workload.PaperTraffic(), fig9Size, fig9Step, fig9ChunkWindows)
	if err != nil {
		return nil, err
	}
	var under streamrule.Reasoner = eng
	var layered *layeredEngine
	if cfg.trace {
		plan, err := analyzeCore(o, prog)
		if err != nil {
			return nil, err
		}
		if layered, err = newLayeredEngine(prog, plan, bench.Outputs); err != nil {
			return nil, err
		}
		under = layered
	}
	o.layer["intern.atoms_start"] = float64(intern.Default().Stats().Atoms)
	a := acc{}
	loop := &closedLoop{cfg: cfg, windows: nominalWindows(cfg, fig9NominalRate, fig9Step), ch: ch, st: &stamper{inner: under}}
	tr := &idTranslator{}
	loop.onWin = func(rec *windowRec, win []rdf.Triple, out *reasoner.Output) {
		rec.digest = tr.digest(out.Answers)
		a.noteOutput(len(win), out)
	}
	if err := loop.run(); err != nil {
		return nil, err
	}
	loop.report(o)
	putTable(o, eng.Stats().Table)
	n := len(loop.recs)
	if a["reasoner.dup_share"] <= 0 {
		o.problem("no duplicated routing (dup_share = 0): P' did not exercise predicate duplication")
	}

	var rl *layeredEngine
	var visit func(int, []rdf.Triple) error
	if cfg.trace {
		// R's phase shares on the same windows, from a layered R on every
		// fourth window; its answers are checked against the reference too.
		if rl, err = newLayeredEngine(prog, nil, bench.Outputs); err != nil {
			return nil, err
		}
		visit = func(k int, win []rdf.Triple) error {
			if k%4 != 0 {
				return nil
			}
			out, err := rl.Reason(win)
			if err != nil {
				return err
			}
			if tr.digest(out.Answers) != loop.recs[k].digest {
				o.problem("layered R differs from the engine under test on window %d", k)
			}
			return nil
		}
	}
	if err := loop.checkReference(o, bench.ProgramPPrime, visit); err != nil {
		return nil, err
	}
	if cfg.trace {
		a.perWindow(o, n)
		layered.spans.perWindow(o, n)
		o.layer["trace.remainder_share"] = 1 - layered.critical/sumOf(loop.latencies())
		if rl.wall > 0 {
			o.layer["r.convert_share"] = rl.spans["dfp.convert_ms"] / rl.wall
			o.layer["r.ground_share"] = rl.spans["ground.scratch_ms"] / rl.wall
			o.layer["r.solve_share"] = rl.spans["solve.solve_ms"] / rl.wall
		}
	}
	return o, nil
}

func nominalWindows(cfg runConfig, rate, step int) int {
	return max(1, int(cfg.seconds*float64(rate))/step)
}
