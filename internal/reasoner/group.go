// The "k reasoner copies" of the paper's run-time architecture (Fig 6): one
// group of R on a shared interning table, used by PR in-process, by DPR's
// local fallback legs on the coordinator, and by every worker session.

package reasoner

import (
	"runtime"
	"sync"
	"time"

	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/solve"
	"streamrule/internal/rdf"
)

// group is k reasoner copies on one shared interning table. The copies run
// with a zero budget: they share the table, so the group owns the budget
// and rotates only after every copy has quiesced (memory.go).
type group struct {
	cfg    Config // the copies' config (budgets zeroed)
	budget budget
	tab    *intern.Table
	rs     []*R
	// sequential runs the copies one after another instead of in parallel
	// goroutines when the host has fewer cores than copies: interleaved
	// goroutines on an oversubscribed host would inflate every per-copy
	// measurement, whereas sequential execution yields honest isolated
	// timings from which Latency.CriticalPath reconstructs the k-core
	// parallel latency.
	sequential bool
}

// newGroup builds n copies of the reasoner for cfg. A budgeted group owns a
// private table unless cfg provides one.
func newGroup(cfg Config, n int) (*group, error) {
	g := &group{budget: cfg.budget()}
	if g.budget.set() && cfg.GroundOpts.Intern == nil {
		cfg.GroundOpts.Intern = intern.NewTable()
	}
	cfg.MemoryBudget, cfg.MemoryBudgetBytes = 0, 0
	g.cfg = cfg
	if err := g.resize(n); err != nil {
		return nil, err
	}
	return g, nil
}

// resize replaces the copies with n fresh ones on the same table (n ≥ 1).
func (g *group) resize(n int) error {
	rs := make([]*R, 0, n)
	for i := 0; i < n; i++ {
		r, err := NewR(g.cfg)
		if err != nil {
			return err
		}
		rs = append(rs, r)
	}
	g.rs, g.tab = rs, rs[0].tab
	g.sequential = runtime.GOMAXPROCS(0) < n
	return nil
}

// step processes one sub-window on copy i.
type step func(r *R, part []rdf.Triple, i int) (*Output, error)

// scratchStep grounds from scratch; autoStep maintains the copy's grounding
// by diffing against its previous sub-window (stream deltas cannot be routed
// through partitioners that duplicate or reshuffle items).
func scratchStep(r *R, part []rdf.Triple, _ int) (*Output, error) { return r.Process(part) }
func autoStep(r *R, part []rdf.Triple, _ int) (*Output, error)    { return r.ProcessAuto(part) }

// run processes parts[i] on copy i for every i in idx (nil = all parts) and
// returns the outputs in idx order. Concurrent runs must use disjoint idx.
func (g *group) run(parts [][]rdf.Triple, idx []int, fn step) ([]*Output, error) {
	if idx == nil {
		idx = make([]int, len(parts))
		for i := range idx {
			idx[i] = i
		}
	}
	outs := make([]*Output, len(idx))
	errs := make([]error, len(idx))
	if g.sequential || len(idx) == 1 {
		for j, i := range idx {
			outs[j], errs[j] = fn(g.rs[i], parts[i], i)
		}
	} else {
		var wg sync.WaitGroup
		for j, i := range idx {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[j], errs[j] = fn(g.rs[i], parts[i], i)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// merge aggregates outputs computed in parallel — by a group's copies or by
// DPR's legs — into one: latency maxima (the critical path), work sums,
// Incremental and FastPath only when every output has them, and the
// combining handler over their answers. Total is the slowest output's Total
// plus the combine.
func merge(outs []*Output) *Output {
	m := &Output{Incremental: len(outs) > 0}
	m.SolveStats.FastPath = len(outs) > 0
	perPart := make([][]*solve.AnswerSet, len(outs))
	for i, o := range outs {
		m.Incremental = m.Incremental && o.Incremental
		m.SolveStats.FastPath = m.SolveStats.FastPath && o.SolveStats.FastPath
		m.Latency.Convert = max(m.Latency.Convert, o.Latency.Convert)
		m.Latency.Ground = max(m.Latency.Ground, o.Latency.Ground)
		m.Latency.Solve = max(m.Latency.Solve, o.Latency.Solve)
		m.Latency.Total = max(m.Latency.Total, o.Latency.Total)
		m.GroundStats.Atoms += o.GroundStats.Atoms
		m.GroundStats.Rules += o.GroundStats.Rules
		m.GroundStats.CertainFacts += o.GroundStats.CertainFacts
		m.GroundStats.Iterations += o.GroundStats.Iterations
		m.SolveStats.Add(o.SolveStats)
		m.Skipped += o.Skipped
		perPart[i] = o.Answers
	}
	t0 := time.Now()
	m.Answers = Combine(perPart, DefaultMaxCombinations)
	m.Latency.Combine = time.Since(t0)
	m.Latency.Total += m.Latency.Combine
	return m
}

// beginWindow opens the window's table epoch; endWindow applies the budget
// after it, keeping every copy's live state plus the answers about to be
// returned, and reports whether the table rotated.
func (g *group) beginWindow() { g.budget.beginWindow(g.tab) }
func (g *group) endWindow(answers []*solve.AnswerSet) bool {
	return g.budget.endWindow(g.tab, g.rs, answers)
}

// rotateNow compacts the table immediately, regardless of budget (the
// manual Rotate hooks). Call it between windows only.
func (g *group) rotateNow() error {
	g.tab.AdvanceEpoch()
	return rotate(g.tab, g.rs, nil)
}

// stats is the group's MemoryStats: one table describes every copy.
func (g *group) stats() MemoryStats { return g.budget.stats(g.tab) }
