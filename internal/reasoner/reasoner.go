package reasoner

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"streamrule/internal/asp/ast"
	"streamrule/internal/asp/ground"
	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/solve"
	"streamrule/internal/dfp"
	"streamrule/internal/rdf"
)

// Config configures a reasoner over a fixed logic program.
type Config struct {
	// Program is the logic program P (shared read-only by all copies).
	Program *ast.Program
	// Inpre lists the input predicate names (inpre(P)).
	Inpre []string
	// Arities overrides arity inference for the input predicates.
	Arities dfp.Arities
	// GroundOpts is passed to the grounder.
	GroundOpts ground.Options
	// SolveOpts is passed to the solver.
	SolveOpts solve.Options
	// IncludeInputFacts keeps input atoms in the returned answer sets.
	// StreamRule streams only the inferred knowledge downstream, and the
	// accuracy comparison is meaningful only on derived atoms, so the
	// default (false) filters atoms of input predicates out.
	IncludeInputFacts bool
	// OutputPreds restricts answers to the given predicates (the events the
	// continuous query asks for, e.g. traffic_jam / car_fire /
	// give_notification in the paper's scenario). Empty means all derived
	// predicates. Takes precedence over IncludeInputFacts.
	OutputPreds []string
	// MemoryBudget bounds the interning table for unbounded streams: when
	// set (> 0), the reasoner owns a private table (unless GroundOpts.Intern
	// provides one) and rotates it — evicting entries no live state
	// references — whenever the atom count exceeds the budget after a
	// window. 0 disables rotation; memory is then bounded by the number of
	// DISTINCT atoms ever seen, which is fine for bounded vocabularies but
	// fatal for streams minting fresh constants every window. Budgeted
	// windows materialize their answer sets eagerly, so retained sets keep
	// valid atoms/keys across later rotations; their raw IDs are valid only
	// until the next window. See memory.go.
	//
	// Deprecated: MemoryBudget counts table ENTRIES, so N atoms over long
	// symbols can blow the real heap budget while N short ones rotate
	// needlessly. Prefer MemoryBudgetBytes; the entry-count knob remains as
	// an alias and both may be combined (rotation triggers when either is
	// exceeded).
	MemoryBudget int
	// MemoryBudgetBytes bounds the interning table by approximate retained
	// bytes (intern.Table.ApproxBytes) instead of entry count — the
	// byte-based successor of MemoryBudget, with identical rotation
	// semantics. 0 disables the byte bound.
	MemoryBudgetBytes int64
}

// Latency breaks the processing time of one window into the phases the
// paper discusses. For PR, Convert/Ground/Solve are the maxima across the
// parallel reasoners (the critical path), and Partition/Combine are the
// extra phases of the partitioned pipeline.
type Latency struct {
	Convert   time.Duration
	Ground    time.Duration
	Solve     time.Duration
	Partition time.Duration
	Combine   time.Duration
	// Total is the wall-clock time of the whole Process call.
	Total time.Duration
	// CriticalPath is the latency of the partitioned pipeline when every
	// partition runs on its own core: Partition + maxᵢ(reasonerᵢ total) +
	// Combine. On a host with at least as many idle cores as partitions it
	// coincides with Total; on a smaller host (such as a single-core
	// container, where goroutines interleave) it is the faithful stand-in
	// for the parallel latency the paper measures on its 8-core machine.
	// For the unpartitioned reasoner R it equals Total.
	CriticalPath time.Duration
}

// Output is the result of processing one window.
type Output struct {
	// Answers holds the answer sets (derived atoms only, unless
	// IncludeInputFacts is set).
	Answers []*solve.AnswerSet
	// Latency is the phase breakdown.
	Latency Latency
	// Skipped counts window items that belong to no input predicate.
	Skipped int
	// PartitionSizes lists the sub-window sizes (PR only).
	PartitionSizes []int
	// RoutedItems counts items routed into partitions including duplicated
	// copies (PR only); RoutedItems - len(window) duplicated copies were
	// created.
	RoutedItems int
	// GroundStats/SolveStats aggregate engine statistics (summed over
	// partitions for PR).
	GroundStats ground.Stats
	SolveStats  solve.Stats
	// Incremental reports that the window was grounded by delta maintenance
	// of the previous window's grounding rather than from scratch (for PR:
	// that every partition was).
	Incremental bool
}

// Delta is the change of a window relative to the previously processed one:
// the triples that entered and the triples that left (as multisets). It
// mirrors the stream layer's WindowDelta without importing it.
type Delta struct {
	Added     []rdf.Triple
	Retracted []rdf.Triple
}

// DuplicationShare returns the fraction of routed items that were duplicated
// copies — the paper reports ~25% for program P' (§IV).
func (o *Output) DuplicationShare(windowSize int) float64 {
	if o.RoutedItems == 0 {
		return 0
	}
	return float64(o.RoutedItems-windowSize+o.Skipped) / float64(o.RoutedItems)
}

// R is the baseline reasoner: it processes the entire input window with one
// grounder+solver invocation (the reasoner R of the paper).
//
// An R owns a reusable grounding instantiator and fact buffer: per-window
// scratch tables are reset, not reallocated, since sliding windows overlap
// heavily. A single R must therefore not process windows concurrently; the
// parallel reasoner PR gives every partition its own copy (all sharing one
// interning table, which is concurrency-safe).
type R struct {
	cfg     Config
	arities dfp.Arities
	inpre   map[intern.SymID]bool
	outputs map[intern.SymID]bool

	tab     *intern.Table
	inst    *ground.Instantiator
	factbuf []intern.AtomID // reusable fact-ID buffer

	// Incremental state (ProcessDelta / ProcessAuto). factRef holds the
	// multiset reference counts of the current window's facts; the
	// grounder's Update receives only the 0<->1 transitions.
	factRef    map[intern.AtomID]int32
	refScratch map[intern.AtomID]int32
	factTot    int  // non-skipped facts in the current window
	skipped    int  // skipped items in the current window
	incLive    bool // factRef and grounder state describe the last window
	incOff     bool // incremental disabled after an internal fallback
	addBuf     []intern.AtomID
	retBuf     []intern.AtomID
	addSet     []intern.AtomID
	retSet     []intern.AtomID

	// liveBuf is the reusable scratch for collecting live IDs at rotation
	// time; a group's rotation uses its first copy's (memory.go).
	liveBuf []intern.AtomID

	// carry holds solver state that survives across windows when the CDNL
	// engine is configured: learned clauses (premise-checked against each
	// window's ground program before replay) and branching activity. It is
	// reset on the paths that abandon window continuity (re-seed, internal
	// fallback) and remapped on table rotation.
	carry *solve.CarryState
}

// NewR builds a reasoner for the program, inferring input arities when not
// provided.
func NewR(cfg Config) (*R, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("reasoner: nil program")
	}
	if len(cfg.Inpre) == 0 {
		return nil, fmt.Errorf("reasoner: empty inpre")
	}
	ar := cfg.Arities
	if ar == nil {
		var err error
		ar, err = dfp.InferArities(cfg.Program, cfg.Inpre)
		if err != nil {
			return nil, err
		}
	}
	if cfg.budget().set() && cfg.GroundOpts.Intern == nil {
		// A budgeted reasoner rotates its table, which invalidates interned
		// IDs; it must own the table rather than share the process-wide
		// default with unsuspecting components.
		cfg.GroundOpts.Intern = intern.NewTable()
	}
	inst, err := ground.NewInstantiator(cfg.Program, cfg.GroundOpts)
	if err != nil {
		return nil, fmt.Errorf("grounding: %w", err)
	}
	tab := inst.Table()
	inpre := make(map[intern.SymID]bool, len(cfg.Inpre))
	for _, p := range cfg.Inpre {
		inpre[tab.Sym(p)] = true
	}
	var outputs map[intern.SymID]bool
	if len(cfg.OutputPreds) > 0 {
		outputs = make(map[intern.SymID]bool, len(cfg.OutputPreds))
		for _, p := range cfg.OutputPreds {
			outputs[tab.Sym(p)] = true
		}
	}
	r := &R{cfg: cfg, arities: ar, inpre: inpre, outputs: outputs, tab: tab, inst: inst}
	if cfg.SolveOpts.CDNL {
		r.carry = &solve.CarryState{}
	}
	return r, nil
}

// resetCarry drops carried solver state on paths that abandon window
// continuity.
func (r *R) resetCarry() {
	if r.carry != nil {
		r.carry.Reset()
	}
}

// SupportsIncremental reports whether the program is statically eligible for
// incremental window maintenance (ProcessDelta/ProcessAuto engage their
// delta paths only then).
func (r *R) SupportsIncremental() bool { return r.inst.SupportsIncremental() }

// Process runs the reasoner on one window, grounding from scratch. It
// invalidates any incremental state, so it doubles as the independent oracle
// for the incremental paths below.
func (r *R) Process(window []rdf.Triple) (*Output, error) {
	r.beginWindow()
	r.incLive = false
	return r.processFull(window)
}

// ProcessDelta processes one window given the delta the windower reported
// relative to the previous emission (nil when the windower could not relate
// the windows — first emission, tumbling window). When the program supports
// incremental grounding, consecutive calls maintain the previous window's
// grounding under the delta instead of re-grounding from scratch; otherwise,
// and whenever a dynamic invariant fails (atom limit, inconsistent delta,
// delta nearly as large as the window), it falls back automatically.
func (r *R) ProcessDelta(window []rdf.Triple, d *Delta) (*Output, error) {
	r.beginWindow()
	if r.incOff || !r.inst.SupportsIncremental() {
		r.incLive = false
		return r.processFull(window)
	}
	if d == nil || !r.incLive || !r.inst.IncrementalReady() {
		if d == nil && !r.incLive {
			// No delta and no state to maintain: nothing to seed for.
			return r.processFull(window)
		}
		return r.processSeed(window)
	}
	return r.processDelta(window, d)
}

// ProcessAuto is the self-diffing incremental path: it interns the full
// window and derives the delta from the previous window's fact multiset.
// PR uses it per partition, where stream-level deltas cannot be routed
// soundly (partitioners may duplicate or reshuffle items).
func (r *R) ProcessAuto(window []rdf.Triple) (*Output, error) {
	r.beginWindow()
	if r.incOff || !r.inst.SupportsIncremental() {
		r.incLive = false
		return r.processFull(window)
	}
	if !r.incLive || !r.inst.IncrementalReady() {
		return r.processSeed(window)
	}
	return r.processDiff(window)
}

// processFull is the from-scratch path (the reasoner R of the paper).
func (r *R) processFull(window []rdf.Triple) (*Output, error) {
	return r.processFullAt(window, time.Now())
}

// processFullAt is processFull with an explicit start time, so windows that
// fall back mid-processing keep the time already spent in their latency.
func (r *R) processFullAt(window []rdf.Triple, start time.Time) (*Output, error) {
	out := &Output{}

	t0 := time.Now()
	factIDs, skipped := dfp.InternFacts(r.tab, window, r.arities, r.factbuf[:0])
	r.factbuf = factIDs
	out.Skipped = skipped
	out.Latency.Convert = time.Since(t0)

	t0 = time.Now()
	gp, err := r.inst.Ground(factIDs)
	if err != nil {
		return nil, fmt.Errorf("grounding: %w", err)
	}
	out.Latency.Ground = time.Since(t0)
	return r.solveAndFilter(out, gp, start)
}

// processSeed grounds the window from scratch while seeding the support
// counts that enable delta maintenance on the next window.
func (r *R) processSeed(window []rdf.Triple) (*Output, error) {
	return r.processSeedAt(window, time.Now())
}

func (r *R) processSeedAt(window []rdf.Triple, start time.Time) (*Output, error) {
	out := &Output{}
	r.incLive = false
	// A re-seed abandons window continuity (first window, mis-advertised
	// delta, or update failure); carried clauses remain sound — their
	// premises are re-checked per window — but the reuse contract exposed to
	// operators is "continuity ended, state dropped", matching the grounder.
	r.resetCarry()

	t0 := time.Now()
	factIDs, skipped := dfp.InternFacts(r.tab, window, r.arities, r.factbuf[:0])
	r.factbuf = factIDs
	if r.factRef == nil {
		r.factRef = make(map[intern.AtomID]int32, len(factIDs))
	}
	clear(r.factRef)
	for _, id := range factIDs {
		r.factRef[id]++
	}
	r.factTot = len(factIDs)
	r.skipped = skipped
	out.Skipped = skipped
	out.Latency.Convert = time.Since(t0)

	t0 = time.Now()
	gp, err := r.inst.GroundIncremental(factIDs)
	if err != nil {
		var lim *ground.ErrAtomLimit
		if errors.As(err, &lim) {
			// A from-scratch grounding of this window fails the same way.
			return nil, fmt.Errorf("grounding: %w", err)
		}
		// The incremental engine cannot handle this program after all;
		// disable it and fall back for good.
		r.incOff = true
		r.resetCarry()
		return r.processFullAt(window, start)
	}
	out.Latency.Ground = time.Since(t0)
	r.incLive = true
	return r.solveAndFilter(out, gp, start)
}

// processDelta applies a windower-reported delta to the maintained grounding.
func (r *R) processDelta(window []rdf.Triple, d *Delta) (*Output, error) {
	start := time.Now()
	out := &Output{}

	t0 := time.Now()
	addIDs, retIDs, skippedDelta := dfp.InternDelta(r.tab, d.Added, d.Retracted, r.arities, r.addBuf[:0], r.retBuf[:0])
	r.addBuf, r.retBuf = addIDs, retIDs
	addSet, retSet := r.addSet[:0], r.retSet[:0]
	for _, id := range retIDs {
		c := r.factRef[id]
		if c <= 0 {
			// The delta retracts a fact the window never held: the windower
			// and our bookkeeping disagree. Re-seed from the full window.
			return r.processSeedAt(window, start)
		}
		if c == 1 {
			delete(r.factRef, id)
			retSet = append(retSet, id)
		} else {
			r.factRef[id] = c - 1
		}
	}
	for _, id := range addIDs {
		c := r.factRef[id]
		r.factRef[id] = c + 1
		if c == 0 {
			addSet = append(addSet, id)
		}
	}
	r.addSet, r.retSet = addSet, retSet
	r.factTot += len(addIDs) - len(retIDs)
	r.skipped += skippedDelta
	if r.factTot+r.skipped != len(window) || r.factTot < 0 || r.skipped < 0 {
		return r.processSeedAt(window, start) // mis-advertised delta
	}
	out.Skipped = r.skipped
	out.Latency.Convert = time.Since(t0)
	return r.applyUpdate(out, window, addSet, retSet, start)
}

// processDiff derives the delta itself by diffing the window's interned fact
// multiset against the previous window's.
func (r *R) processDiff(window []rdf.Triple) (*Output, error) {
	start := time.Now()
	out := &Output{}

	t0 := time.Now()
	factIDs, skipped := dfp.InternFacts(r.tab, window, r.arities, r.factbuf[:0])
	r.factbuf = factIDs
	next := r.refScratch
	if next == nil {
		next = make(map[intern.AtomID]int32, len(factIDs))
	}
	clear(next)
	for _, id := range factIDs {
		next[id]++
	}
	addSet, retSet := r.addSet[:0], r.retSet[:0]
	for id := range next {
		if r.factRef[id] == 0 {
			addSet = append(addSet, id)
		}
	}
	for id := range r.factRef {
		if next[id] == 0 {
			retSet = append(retSet, id)
		}
	}
	r.addSet, r.retSet = addSet, retSet
	r.factRef, r.refScratch = next, r.factRef
	r.factTot = len(factIDs)
	r.skipped = skipped
	out.Skipped = skipped
	out.Latency.Convert = time.Since(t0)
	return r.applyUpdate(out, window, addSet, retSet, start)
}

// applyUpdate runs the grounder's Update with the fact-level delta, falling
// back to a full re-seed when the delta is too large to pay off or the
// update fails.
func (r *R) applyUpdate(out *Output, window []rdf.Triple, addSet, retSet []intern.AtomID, start time.Time) (*Output, error) {
	if 2*(len(addSet)+len(retSet)) >= r.factTot {
		// Non-overlapping or nearly disjoint windows: delta joins would
		// do more work than grounding from scratch.
		return r.processSeedAt(window, start)
	}
	t0 := time.Now()
	gp, err := r.inst.Update(addSet, retSet)
	if err != nil {
		var lim *ground.ErrAtomLimit
		if !errors.As(err, &lim) && !errors.Is(err, ground.ErrNotIncremental) {
			// Accounting violation: distrust the incremental engine for
			// this reasoner from now on — no point seeding state that can
			// never be consumed.
			r.incOff = true
			r.incLive = false
			r.resetCarry()
			return r.processFullAt(window, start)
		}
		return r.processSeedAt(window, start)
	}
	out.Latency.Ground = time.Since(t0)
	out.Incremental = true
	return r.solveAndFilter(out, gp, start)
}

// solveAndFilter is the shared tail of every processing path.
func (r *R) solveAndFilter(out *Output, gp *ground.Program, start time.Time) (*Output, error) {
	out.GroundStats = gp.Stats
	t0 := time.Now()
	res, err := solve.SolveCarry(gp, r.cfg.SolveOpts, r.carry)
	if err != nil {
		return nil, fmt.Errorf("solving: %w", err)
	}
	out.Latency.Solve = time.Since(t0)
	out.SolveStats = res.Stats

	out.Answers = make([]*solve.AnswerSet, len(res.Models))
	for i, m := range res.Models {
		out.Answers[i] = r.filter(m)
	}
	// Budget-triggered table rotation is part of the window's cost, so it
	// lands inside Total/CriticalPath.
	r.cfg.budget().endWindow(r.tab, []*R{r}, out.Answers)
	out.Latency.Total = time.Since(start)
	out.Latency.CriticalPath = out.Latency.Total
	return out, nil
}

// filter projects an answer set to the configured output predicates, or to
// all derived (non-input) atoms by default. The projection runs on interned
// IDs; no atom is materialized.
func (r *R) filter(m *solve.AnswerSet) *solve.AnswerSet {
	keep := func(id intern.AtomID) bool {
		sym := r.tab.PredNameSym(r.tab.AtomPred(id))
		if r.outputs != nil {
			return r.outputs[sym]
		}
		return !r.inpre[sym]
	}
	if r.outputs == nil && r.cfg.IncludeInputFacts {
		return m
	}
	ids := m.IDs()
	kept := make([]intern.AtomID, 0, len(ids))
	for _, id := range ids {
		if keep(id) {
			kept = append(kept, id)
		}
	}
	return solve.FromIDs(r.tab, kept)
}

// PR is the parallel reasoner of the extended StreamRule framework: a
// partitioning handler, k copies of the reasoner, and a combining handler.
type PR struct {
	part Partitioner
	g    *group
}

// DefaultMaxCombinations bounds the answer-set cross product.
const DefaultMaxCombinations = 64

// NumPartitions returns the number of reasoner copies (= partitions).
func (pr *PR) NumPartitions() int { return len(pr.g.rs) }

// NewPR builds a parallel reasoner with one reasoner copy per partition.
func NewPR(cfg Config, part Partitioner) (*PR, error) {
	if part == nil {
		return nil, fmt.Errorf("reasoner: nil partitioner")
	}
	n := part.NumPartitions()
	if n < 1 {
		return nil, fmt.Errorf("reasoner: partitioner yields %d partitions", n)
	}
	g, err := newGroup(cfg, n)
	if err != nil {
		return nil, err
	}
	return &PR{part: part, g: g}, nil
}

// Process partitions the window, reasons over the partitions in parallel,
// and combines the per-partition answer sets. Each partition is grounded
// from scratch.
func (pr *PR) Process(window []rdf.Triple) (*Output, error) {
	return pr.process(window, scratchStep)
}

// ProcessDelta is the incremental Process for overlapping windows: each
// partition reasoner maintains its grounding across windows, deriving its
// own partition-level delta by diffing fact multisets (partition routing may
// duplicate or reshuffle items, so the stream-level delta cannot be routed
// directly). A nil delta (first emission, tumbling window) degrades to the
// from-scratch Process.
func (pr *PR) ProcessDelta(window []rdf.Triple, d *Delta) (*Output, error) {
	if d == nil {
		return pr.Process(window)
	}
	return pr.process(window, autoStep)
}

func (pr *PR) process(window []rdf.Triple, fn step) (*Output, error) {
	start := time.Now()
	pr.g.beginWindow()
	t0 := time.Now()
	parts, skipped := pr.part.Partition(window)
	partition := time.Since(t0)
	outs, err := pr.g.run(parts, nil, fn)
	if err != nil {
		return nil, err
	}
	out := merge(outs)
	out.route(parts, skipped, partition)

	// Coordinated table rotation: all partitions have quiesced, so the
	// shared table can be compacted and every reasoner remapped. Charged to
	// Combine's side of the critical path (it runs on the combining host).
	t0 = time.Now()
	pr.g.endWindow(out.Answers)
	out.Latency.CriticalPath = out.Latency.Partition + out.Latency.Total + time.Since(t0)
	out.Latency.Total = time.Since(start)
	return out, nil
}

// route records the partitioning handler's share of a window: its skipped
// items and latency, and the sizes of the sub-windows it routed.
func (o *Output) route(parts [][]rdf.Triple, skipped int, lat time.Duration) {
	o.Skipped = skipped
	o.Latency.Partition = lat
	for _, p := range parts {
		o.PartitionSizes = append(o.PartitionSizes, len(p))
		o.RoutedItems += len(p)
	}
}

// Combine implements the combining handler (§III):
//
//	AnsP(W) = { ⋃ᵢ ansᵢ : ansᵢ ∈ AnsP(Wᵢ) }
//
// the cross product of per-partition answer sets, each combination unioned.
// If any partition has no answer set the combined result is empty, per the
// formula. The number of combinations is capped at max; duplicates are
// removed.
func Combine(perPartition [][]*solve.AnswerSet, max int) []*solve.AnswerSet {
	for _, answers := range perPartition {
		if len(answers) == 0 {
			return nil
		}
	}
	if len(perPartition) == 0 {
		return nil
	}
	// Seed the cross product on the partitions' own interning table (they
	// all share one), so unions run on the ID fast path and the combined
	// sets stay inside the table the reasoner owns — essential when that
	// table is budgeted and rotates.
	combos := []*solve.AnswerSet{solve.FromIDs(perPartition[0][0].Table(), nil)}
	for _, answers := range perPartition {
		var next []*solve.AnswerSet
		for _, c := range combos {
			for _, a := range answers {
				next = append(next, c.Union(a))
				if len(next) >= max {
					break
				}
			}
			if len(next) >= max {
				break
			}
		}
		combos = next
	}
	// Deduplicate by a compact binary signature over the sorted interned
	// IDs — no atom is rendered to text. The table pointer is part of the
	// key so IDs from different interning tables are never conflated.
	type sigKey struct {
		tab *intern.Table
		sig string
	}
	seen := make(map[sigKey]bool, len(combos))
	out := combos[:0]
	var buf []byte
	for _, c := range combos {
		buf = buf[:0]
		for _, id := range c.IDs() {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
		k := sigKey{tab: c.Table(), sig: string(buf)}
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}
