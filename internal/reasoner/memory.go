// Memory management for unbounded streams: epoch advance, budget-triggered
// interning-table rotation, and the remapping of every piece of
// cross-window reasoner state that holds interned IDs.
//
// A reasoner with a memory budget (Config.MemoryBudget or
// MemoryBudgetBytes) owns a private interning table (NewR/newGroup arrange
// that). Each window advances the table's epoch; after the window is
// processed, the table is rotated when it exceeds either bound. The live set
// passed to intern.Table.Rotate is everything the reasoners on the table
// still reference: the grounder's maintained stores and program facts, the
// fact-multiset reference counts of the incremental path, and the answer
// sets of the output about to be returned (so callers keep valid IDs). A
// group of copies sharing one table (PR, DPR's fallback legs, a worker
// session) rotates once for all of them, after all have quiesced.

package reasoner

import (
	"fmt"

	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/solve"
)

// MemoryStats surfaces the memory metrics of a reasoner: the configured
// budget and a snapshot of its interning table (live/peak entries,
// rotations, cumulative remap time).
type MemoryStats struct {
	// Budget is the configured MemoryBudget in table entries (0 = no
	// entry-count bound).
	Budget int
	// BudgetBytes is the configured MemoryBudgetBytes (0 = no byte bound).
	BudgetBytes int64
	// Table is the snapshot of the reasoner's interning table. For the
	// distributed reasoner it describes the coordinator's answer table;
	// worker tables are remote (see WindowResp.LiveAtoms for their
	// per-window snapshots).
	Table intern.TableStats
	// Transport carries the wire metrics of a distributed reasoner (bytes
	// shipped, dictionary hit rate, fallbacks); nil for in-process engines.
	Transport *TransportStats
}

// Stats returns the reasoner's memory metrics.
func (r *R) Stats() MemoryStats { return r.cfg.budget().stats(r.tab) }

// Stats returns the parallel reasoner's memory metrics. All partition
// reasoners share one table, so a single snapshot describes them all.
func (pr *PR) Stats() MemoryStats { return pr.g.stats() }

// budget is the memory bound of one interning table: a cap on its entries,
// on its approximate retained bytes, or both. The zero value is unbounded.
type budget struct {
	entries int
	bytes   int64
}

func (c *Config) budget() budget { return budget{c.MemoryBudget, c.MemoryBudgetBytes} }

func (b budget) set() bool { return b.entries > 0 || b.bytes > 0 }

func (b budget) stats(tab *intern.Table) MemoryStats {
	return MemoryStats{Budget: b.entries, BudgetBytes: b.bytes, Table: tab.Stats()}
}

// overBudget reports whether a table exceeds either configured bound — the
// entry-count knob, the byte knob, or both.
func (b budget) overBudget(tab *intern.Table) bool {
	if b.entries > 0 && tab.NumAtoms() > b.entries {
		return true
	}
	return b.bytes > 0 && tab.ApproxBytes() > b.bytes
}

// beginWindow opens a new table epoch under a budget, so that "touched in
// the current epoch" coincides with "referenced by this window".
func (b budget) beginWindow(tab *intern.Table) {
	if b.set() {
		tab.AdvanceEpoch()
	}
}

func (r *R) beginWindow() { r.cfg.budget().beginWindow(r.tab) }

// endWindow applies the budget after a window: when the table is over it,
// rotate keeping the live state of rs (every reasoner on the table) plus
// the answers about to be returned. Rotation failures (a shared default
// table, concurrent misuse) disable nothing: the reasoners keep running
// correctly, merely without eviction. It reports whether the table rotated.
//
// The returned answer sets are remapped, so their IDs stay valid until the
// NEXT window's rotation. Sets a caller retains across windows cannot be
// remapped (nothing tracks them any more), so budgeted windows additionally
// materialize their answers eagerly: the textual atoms, keys, and key-based
// operations of retained sets remain valid forever; only their raw IDs go
// stale.
func (b budget) endWindow(tab *intern.Table, rs []*R, answers []*solve.AnswerSet) bool {
	if !b.set() {
		return false
	}
	rotated := b.overBudget(tab) && rotate(tab, rs, answers) == nil
	materializeAnswers(answers)
	return rotated
}

// materializeAnswers forces the lazy atom/key rendering of the answer sets
// about to be returned, detaching their user-visible content from future
// table rotations.
func materializeAnswers(answers []*solve.AnswerSet) {
	for _, a := range answers {
		a.Atoms()
	}
}

// Rotate compacts the reasoner's interning table to its live entries
// immediately, regardless of budget — the manual hook for cadence-based
// eviction. It opens a fresh epoch first (between windows nothing is in
// flight, so only the reported live state is kept) and invalidates the
// interned IDs of previously returned outputs (their materialized atoms
// remain valid); call it between windows only. The table must be private
// (ground.Options.Intern): rotating the process-wide default table is
// refused.
func (r *R) Rotate() error {
	r.tab.AdvanceEpoch()
	return rotate(r.tab, []*R{r}, nil)
}

// Rotate is the manual rotation hook of the parallel reasoner; see R.Rotate.
// It must not run concurrently with Process/ProcessDelta.
func (pr *PR) Rotate() error { return pr.g.rotateNow() }

// rotate compacts tab to the live state of the reasoners rs that share it
// plus the given answer sets, then remaps all of them. rs[0]'s scratch
// buffer collects the live IDs.
func rotate(tab *intern.Table, rs []*R, answers []*solve.AnswerSet) error {
	live := rs[0].liveBuf[:0]
	for _, r := range rs {
		live = r.appendLive(live)
	}
	live = appendAnswerIDs(live, answers, tab)
	rm, err := tab.Rotate(live)
	rs[0].liveBuf = live[:0]
	if err != nil {
		return err
	}
	for _, r := range rs {
		r.applyRemap(rm)
	}
	return remapAnswers(answers, rm, tab)
}

// appendAnswerIDs collects the IDs of the answer sets that live on the
// rotating table. Sets on a foreign table (possible only through exotic
// custom combiners) are unaffected by the rotation and are left alone.
func appendAnswerIDs(dst []intern.AtomID, answers []*solve.AnswerSet, tab *intern.Table) []intern.AtomID {
	for _, a := range answers {
		if a.Table() == tab {
			dst = append(dst, a.IDs()...)
		}
	}
	return dst
}

// appendLive collects every atom ID this reasoner references across windows.
func (r *R) appendLive(dst []intern.AtomID) []intern.AtomID {
	dst = r.inst.LiveAtomIDs(dst)
	if r.incLive {
		for id := range r.factRef {
			dst = append(dst, id)
		}
	}
	return dst
}

// applyRemap rewrites the reasoner's cross-window state to the rotated IDs.
func (r *R) applyRemap(rm *intern.Remap) {
	if r.inst.Remap(rm) {
		// The grounder dropped its incremental state; the next window must
		// re-seed rather than Update.
		r.incLive = false
	}
	if r.incLive {
		next := r.refScratch
		if next == nil {
			next = make(map[intern.AtomID]int32, len(r.factRef))
		}
		clear(next)
		ok := true
		for id, c := range r.factRef {
			nid, live := rm.Atom(id)
			if !live {
				ok = false
				break
			}
			next[nid] = c
		}
		if ok {
			r.factRef, r.refScratch = next, r.factRef
		} else {
			// The refcounts listed their keys as live, so a miss means the
			// rotation was driven by someone else's live set; fall back to
			// re-seeding.
			r.incLive = false
		}
	}
	if r.carry != nil {
		// Carried clauses referencing rotated atoms are rewritten; clauses
		// touching evicted atoms are dropped (their premises are gone).
		r.carry.Remap(rm)
	}
	// Per-window ID scratch is stale after a rotation.
	r.factbuf = r.factbuf[:0]
	r.addBuf, r.retBuf = r.addBuf[:0], r.retBuf[:0]
	r.addSet, r.retSet = r.addSet[:0], r.retSet[:0]
	// The input/output projection sets are keyed by predicate-name symbols;
	// re-intern them from the configured names (predicate-name symbols are
	// pinned by rotation, so this is a pure re-keying, never growth).
	inpre := make(map[intern.SymID]bool, len(r.cfg.Inpre))
	for _, p := range r.cfg.Inpre {
		inpre[r.tab.Sym(p)] = true
	}
	r.inpre = inpre
	if r.outputs != nil {
		outputs := make(map[intern.SymID]bool, len(r.cfg.OutputPreds))
		for _, p := range r.cfg.OutputPreds {
			outputs[r.tab.Sym(p)] = true
		}
		r.outputs = outputs
	}
}

// remapAnswers rewrites the IDs of the answer sets about to be returned
// (skipping sets on a foreign table). Their IDs were part of the live set,
// so a miss indicates concurrent mutation of a set the reasoner still owns.
func remapAnswers(answers []*solve.AnswerSet, rm *intern.Remap, tab *intern.Table) error {
	for _, a := range answers {
		if a.Table() != tab {
			continue
		}
		if !a.Remap(rm) {
			return fmt.Errorf("reasoner: answer set lost atoms in table rotation")
		}
	}
	return nil
}
