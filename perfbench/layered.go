package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"streamrule"
	"streamrule/internal/asp/ground"
	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/solve"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/rdf"
	"streamrule/internal/reasoner"
)

// acc sums per-window quantities by metric name.
type acc map[string]float64

// perWindow stores each summed quantity divided by the window count.
func (a acc) perWindow(o *runOut, windows int) {
	for name, v := range a {
		o.layer[name] = v / float64(max(windows, 1))
	}
}

// noteOutput adds the work counts every engine reports in its Output.
func (a acc) noteOutput(windowLen int, out *reasoner.Output) {
	a["reasoner.dup_share"] += out.DuplicationShare(windowLen)
	if n := len(out.PartitionSizes); n > 0 {
		biggest, total := 0, 0
		for _, s := range out.PartitionSizes {
			biggest = max(biggest, s)
			total += s
		}
		if total > 0 {
			a["reasoner.partition_skew"] += float64(biggest) * float64(n) / float64(total)
		}
	}
	a["solve.answer_sets"] += float64(len(out.Answers))
	a["solve.decisions"] += float64(out.SolveStats.Choices)
	a["solve.conflicts"] += float64(out.SolveStats.Conflicts)
	a["solve.rule_visits"] += float64(out.SolveStats.RuleVisits)
	if out.SolveStats.FastPath {
		a["solve.fastpath_share"]++
	}
	if out.Incremental {
		a["ground.incremental_share"]++
	}
	a["ground.rules_per_window"] += float64(out.GroundStats.Rules)
	a["ground.atoms_per_window"] += float64(out.GroundStats.Atoms)
}

// layeredEngine reproduces the partitioned reasoner's window path —
// partition, then per partition convert, ground and solve, then combine —
// by calling each layer's public function itself and timing every call.
// With a single partition and no partitioner it is the whole-window
// reasoner R. It grounds every window from scratch (the fig9_tumbling
// path) into the process-wide interning table, exactly like the engines
// it stands in for, so its answers are comparable by atom ID.
type layeredEngine struct {
	part    reasoner.Partitioner // nil = whole window (R)
	arities dfp.Arities
	tab     *intern.Table
	insts   []*ground.Instantiator
	bufs    [][]intern.AtomID
	outputs map[intern.SymID]bool // the projection
	// sequential mirrors reasoner.PR: partitions run one after another when
	// the host has fewer cores than partitions.
	sequential bool

	spans acc
	// critical sums, per window, partition + slowest partition + combine:
	// the part of the window's wall time the spans explain.
	critical float64
	wall     float64
}

func newLayeredEngine(prog *streamrule.Program, plan *core.Plan, outputs []string) (*layeredEngine, error) {
	ar, err := dfp.InferArities(prog.AST, prog.Inpre)
	if err != nil {
		return nil, err
	}
	n := 1
	l := &layeredEngine{arities: ar, tab: intern.Default(), outputs: map[intern.SymID]bool{}, spans: acc{}}
	if plan != nil {
		l.part = reasoner.NewPlanPartitioner(plan)
		n = plan.NumPartitions()
	}
	l.sequential = runtime.GOMAXPROCS(0) < n
	for i := 0; i < n; i++ {
		inst, err := ground.NewInstantiator(prog.AST, ground.Options{})
		if err != nil {
			return nil, err
		}
		l.insts = append(l.insts, inst)
		l.bufs = append(l.bufs, nil)
	}
	for _, p := range outputs {
		l.outputs[l.tab.Sym(p)] = true
	}
	return l, nil
}

// partResult is one partition's answers and span times.
type partResult struct {
	answers                        []*solve.AnswerSet
	convert, ground, solve, filter time.Duration
	gstats                         ground.Stats
	sstats                         solve.Stats
	facts                          int
	err                            error
}

func (l *layeredEngine) reasonPart(i int, items []rdf.Triple) (r partResult) {
	t0 := time.Now()
	ids, _ := dfp.InternFacts(l.tab, items, l.arities, l.bufs[i][:0])
	l.bufs[i] = ids
	r.facts = len(ids)
	t1 := time.Now()
	gp, err := l.insts[i].Ground(ids)
	if err != nil {
		r.err = fmt.Errorf("grounding: %w", err)
		return r
	}
	t2 := time.Now()
	res, err := solve.Solve(gp, solve.Options{})
	if err != nil {
		r.err = fmt.Errorf("solving: %w", err)
		return r
	}
	t3 := time.Now()
	// Project to derived atoms, as the engines do by default.
	for _, m := range res.Models {
		kept := make([]intern.AtomID, 0, m.Len())
		for _, id := range m.IDs() {
			if l.outputs[l.tab.PredNameSym(l.tab.AtomPred(id))] {
				kept = append(kept, id)
			}
		}
		r.answers = append(r.answers, solve.FromIDs(l.tab, kept))
	}
	t4 := time.Now()
	r.convert, r.ground, r.solve, r.filter = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	r.gstats, r.sstats = gp.Stats, res.Stats
	return r
}

// Reason implements streamrule.Reasoner.
func (l *layeredEngine) Reason(window []rdf.Triple) (*reasoner.Output, error) {
	start := time.Now()
	out := &reasoner.Output{}
	parts := [][]rdf.Triple{window}
	var partition time.Duration
	if l.part != nil {
		t0 := time.Now()
		parts, out.Skipped = l.part.Partition(window)
		partition = time.Since(t0)
		for _, p := range parts {
			out.PartitionSizes = append(out.PartitionSizes, len(p))
			out.RoutedItems += len(p)
		}
	}
	results := make([]partResult, len(parts))
	if l.sequential || len(parts) == 1 {
		for i, p := range parts {
			results[i] = l.reasonPart(i, p)
		}
	} else {
		var wg sync.WaitGroup
		for i, p := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = l.reasonPart(i, p)
			}()
		}
		wg.Wait()
	}
	perPartition := make([][]*solve.AnswerSet, len(results))
	var slowest time.Duration
	out.SolveStats.FastPath = true
	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		perPartition[i] = r.answers
		l.spans["dfp.convert_ms"] += ms(r.convert)
		l.spans["dfp.facts_per_window"] += float64(r.facts)
		l.spans["ground.scratch_ms"] += ms(r.ground)
		l.spans["solve.solve_ms"] += ms(r.solve)
		l.spans["reasoner.filter_ms"] += ms(r.filter)
		slowest = max(slowest, r.convert+r.ground+r.solve+r.filter)
		out.GroundStats.Atoms += r.gstats.Atoms
		out.GroundStats.Rules += r.gstats.Rules
		out.SolveStats.Add(r.sstats)
		out.SolveStats.FastPath = out.SolveStats.FastPath && r.sstats.FastPath
	}
	var combine time.Duration
	if len(perPartition) == 1 {
		out.Answers = perPartition[0]
	} else {
		t0 := time.Now()
		out.Answers = reasoner.Combine(perPartition, reasoner.DefaultMaxCombinations)
		combine = time.Since(t0)
	}
	out.Latency.Total = time.Since(start)
	l.spans["reasoner.partition_ms"] += ms(partition)
	l.spans["reasoner.combine_ms"] += ms(combine)
	l.critical += ms(partition + slowest + combine)
	l.wall += ms(out.Latency.Total)
	return out, nil
}
