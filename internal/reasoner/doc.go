// Package reasoner implements the reasoning layer of the extended StreamRule
// framework (Figure 6 of the paper): the baseline reasoner R (data format
// processor + grounder + solver over the whole window), the parallel
// reasoner PR (partitioning handler, k reasoner copies, combining handler),
// the distributed reasoner DPR (the same partition/combine pipeline with the
// k copies running on remote workers over internal/transport), and the
// accuracy metric of §III.
//
// # Reasoner topologies
//
// R processes the entire window with one grounder+solver pass. PR routes
// window items into the partitions of a design-time plan (input-dependency
// communities) and runs one R per partition in parallel, combining the
// per-partition answer sets by the cross-product-of-unions formula. DPR
// keeps PR's partitioning and combining handlers on the coordinator but
// ships each partition's sub-window to a remote worker session, where a
// full R (incremental, memory-budgeted) processes it; answers return in the
// portable wire form of internal/asp/intern and are re-interned through a
// cached per-worker dictionary. Every DPR partition also holds a local
// fallback R, so a dead or straggling worker costs latency, not answers.
//
// All three expose the same processing surface: Process grounds from
// scratch; ProcessDelta maintains the previous window's grounding under a
// windower-reported delta where the program is eligible, with automatic
// fallback everywhere else. Answers are identical along every path — the
// differential harnesses in this package's tests enforce R ≡ PR ≡ DPR on
// every window, with and without eviction.
//
// # Memory
//
// With Config.MemoryBudget or MemoryBudgetBytes set, a reasoner owns a
// private interning table and rotates it between windows when a bound is
// exceeded (memory.go). The k copies of PR, of a DPR worker session, and of
// DPR's local fallback are each one group on a shared table (group.go),
// which rotates once for all of them; DPR's workers rotate their own tables
// independently while the coordinator budgets its own. Stats surfaces the
// table metrics, plus the transport metrics (bytes shipped, dictionary hit
// rate, fallbacks) for DPR.
//
// The worker side of DPR lives in worker.go: WorkerHandler builds one
// session (a group of R plus the wire dictionaries) per coordinator
// connection, so a single worker process can serve many coordinators and
// programs at once.
package reasoner
