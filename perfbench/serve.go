package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"streamrule"
	"streamrule/internal/asp/intern"
	"streamrule/internal/bench"
	"streamrule/internal/rdf"
	"streamrule/internal/reasoner"
	"streamrule/internal/workload"
)

// serve_mixed_tenants: 64 tenants on one Server, half running program P on
// tenant-prefixed paper traffic (incremental, stratified), half running
// bench.ProgramResidual on tenant-prefixed residual traffic (re-grounded
// every window, real solver search, 8 answer sets), on 500/100 sliding
// windows, fed open loop by one generator at a fixed aggregate rate.
const (
	serveTenants         = 64
	serveSize, serveStep = 500, 100
	// serveBudgetBytes is each tenant's interning-table budget: a tenant's
	// table outgrows it in about twenty windows, so private tables rotate a
	// few times per run.
	serveBudgetBytes = 256 << 10
	// defaultServeRate is the offered aggregate rate in items/s, about a
	// third of the closed-loop capacity measured with --serve-rate 0 on a
	// 2-core host (67-92k items/s); at half, the latency tail swings too
	// much from run to run to carry a bound (see README.md).
	defaultServeRate = 24000
	serveSetupReps   = 15
	// closedLoopRate sizes the pre-generated input of a --serve-rate 0 run.
	closedLoopRate = 150000
)

// delivery is one window a tenant's Handle received.
type delivery struct {
	at          time.Time
	first, last rdf.Triple
	digest      uint64
	out         reasoner.Output // latency and counts; Answers is cleared
	emission    int             // which of the tenant's windows, -1 = unmatched
}

type tenantRun struct {
	id         string
	residual   bool
	phase      int // rounds by which the tenant's stream starts late
	items      []rdf.Triple
	pushEnd    []time.Time // push end of each window's last item, by emission
	deliveries []delivery
	table      *intern.Table
}

func (t *tenantRun) program() string {
	if t.residual {
		return bench.ProgramResidual
	}
	return bench.ProgramP
}

// emissions is the number of windows the first n items of a tenant emit.
func emissions(n int) int {
	if n < serveSize {
		return 0
	}
	return (n-serveSize)/serveStep + 1
}

func runServe(cfg runConfig) (*runOut, error) {
	o := newRunOut()
	rate := cfg.serveRate
	unpaced := rate == 0
	genRate := rate
	if unpaced {
		genRate = closedLoopRate
	}
	// Input: per tenant, the whole windows the run offers at the rate,
	// from one seeded generator per tenant drawing window-sized blocks.
	perTenant := int(genRate*cfg.seconds) / serveTenants
	perTenant = serveSize + max(perTenant-serveSize, 0)/serveStep*serveStep
	tenants := make([]*tenantRun, serveTenants)
	byID := map[string]*tenantRun{}
	for i := range tenants {
		// Tenants are offset by a fraction of a window step, so their
		// windows complete spread over the step instead of all in the same
		// round-robin round.
		t := &tenantRun{id: fmt.Sprintf("t%d", i), residual: i%2 == 1, phase: i * serveStep / serveTenants}
		specs := workload.TenantTraffic(t.id)
		if t.residual {
			specs = tenantResidualTraffic(t.id)
		}
		s, err := newItemStream(cfg.seed*1000+int64(i), specs, serveSize)
		if err != nil {
			return nil, err
		}
		t.items = s.next(make([]rdf.Triple, 0, perTenant), perTenant)
		t.pushEnd = make([]time.Time, emissions(perTenant))
		tenants[i] = t
		byID[t.id] = t
	}
	baseHeap := liveHeapMB()

	overflow := streamrule.ShedOldest
	if unpaced {
		overflow = streamrule.BlockIngress
	}
	var srv *streamrule.Server
	setup, err := timeSetup(serveSetupReps, func() error {
		if srv != nil {
			srv.Close()
		}
		srv = streamrule.NewServer(streamrule.ServerConfig{Workers: runtime.NumCPU()})
		for _, t := range tenants {
			err := srv.AddTenant(t.id, streamrule.TenantConfig{
				Program: t.program(), Inpre: bench.Inpre,
				WindowSize: serveSize, WindowStep: serveStep,
				MemoryBudgetBytes: serveBudgetBytes,
				Overflow:          overflow,
				Handle: func(win []rdf.Triple, out *reasoner.Output) {
					now := time.Now()
					d := delivery{at: now, first: win[0], last: win[len(win)-1], digest: keyDigest(out.Answers), out: *out, emission: -1}
					d.out.Answers = nil
					if len(out.Answers) > 0 {
						t.table = out.Answers[0].Table()
					}
					t.deliveries = append(t.deliveries, d)
				},
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	o.e2e["setup_s"] = setup
	if cfg.trace {
		for _, src := range []string{bench.ProgramP, bench.ProgramResidual} {
			prog, err := streamrule.LoadProgram(src, bench.Inpre)
			if err != nil {
				return nil, err
			}
			if _, err := analyzeCore(o, prog); err != nil {
				return nil, err
			}
		}
	}
	o.layer["intern.atoms_start"] = float64(intern.Default().Stats().Atoms)

	// The open-loop generator pushes round-robin over the tenants from one
	// goroutine: slot s belongs to tenant s%T, is due at start + s/rate and
	// is pushed as soon as it is due, whatever the server is doing. Every
	// tenant gets exactly perTenant items, a whole number of windows.
	interval := time.Duration(float64(time.Second) / genRate)
	slots := (perTenant + tenants[serveTenants-1].phase) * serveTenants
	var lateness []float64
	var pushTime time.Duration
	var start0 time.Time
	due := func(slot int) time.Time { return start0.Add(time.Duration(slot) * interval) }
	rt0 := readRuntime()
	start0 = time.Now()
	pushed := 0
	for slot := 0; slot < slots; slot++ {
		t := tenants[slot%serveTenants]
		j := slot/serveTenants - t.phase
		if j < 0 || j >= perTenant {
			continue
		}
		if !unpaced {
			if d := time.Until(due(slot)); d > 0 {
				time.Sleep(d)
			}
		}
		p0 := time.Now()
		if !unpaced {
			lateness = append(lateness, ms(p0.Sub(due(slot))))
		}
		if err := srv.Push(t.id, t.items[j]); err != nil {
			return nil, err
		}
		p1 := time.Now()
		pushTime += p1.Sub(p0)
		if j >= serveSize-1 && (j-(serveSize-1))%serveStep == 0 {
			t.pushEnd[(j-(serveSize-1))/serveStep] = p1
		}
		pushed++
	}
	if err := srv.DrainAll(); err != nil {
		return nil, err
	}
	rt := readRuntime().sub(rt0)
	stats := srv.Stats()
	endHeap := liveHeapMB()

	// Match deliveries to emissions and time them.
	var lat, queueWait, execPaper, execResidual []float64
	var lastDelivery time.Time
	a := acc{}
	windowsDue, late, delivered, consumed := 0, 0, 0, 0
	residualWindows, residualFast := 0, 0
	for ti, t := range tenants {
		slotOf := func(item int) int { return (item+t.phase)*serveTenants + ti }
		due := emissions(perTenant)
		windowsDue += due
		deliveredAt := make([]time.Time, due)
		e := 0
		for di := range t.deliveries {
			d := &t.deliveries[di]
			for e < due && !(t.items[e*serveStep] == d.first && t.items[e*serveStep+serveSize-1] == d.last) {
				e++
			}
			if e == due {
				break
			}
			d.emission = e
			lastItem := e*serveStep + serveSize - 1
			dueAt := start0.Add(time.Duration(slotOf(lastItem)) * interval)
			if unpaced {
				dueAt = t.pushEnd[e]
			}
			lat = append(lat, ms(d.at.Sub(dueAt)))
			queueWait = append(queueWait, ms(d.at.Sub(t.pushEnd[e])-d.out.Latency.Total))
			if t.residual {
				execResidual = append(execResidual, ms(d.out.Latency.Total))
				residualWindows++
				if d.out.SolveStats.FastPath {
					residualFast++
				}
			} else {
				execPaper = append(execPaper, ms(d.out.Latency.Total))
			}
			deliveredAt[e] = d.at
			if d.at.After(lastDelivery) {
				lastDelivery = d.at
			}
			a.noteOutput(serveSize, &d.out)
			a["dfp.convert_ms"] += ms(d.out.Latency.Convert)
			a["solve.solve_ms"] += ms(d.out.Latency.Solve)
			if d.out.Incremental {
				a["ground.update_ms"] += ms(d.out.Latency.Ground)
			} else {
				a["ground.scratch_ms"] += ms(d.out.Latency.Ground)
			}
			a["trace.explained_ms"] += ms(d.out.Latency.Convert + d.out.Latency.Ground + d.out.Latency.Solve)
			a["trace.exec_ms"] += ms(d.out.Latency.Total)
			delivered++
			consumed += serveStep
			if e == 0 {
				consumed += serveSize - serveStep
			}
			e++
		}
		for k := 0; k < due; k++ {
			nextDue := start0.Add(time.Duration(slotOf((k+1)*serveStep+serveSize-1)) * interval)
			if deliveredAt[k].IsZero() || (!unpaced && deliveredAt[k].After(nextDue)) {
				late++
			}
		}
		if t.table != nil {
			putTable(o, t.table.Stats())
		}
	}

	o.attempted = windowsDue
	o.failed = windowsDue - delivered
	o.putLatencies(lat)
	o.e2e["items_per_s"] = float64(consumed) / lastDelivery.Sub(start0).Seconds()
	o.e2e["heap_retained_mb"] = endHeap - baseHeap
	o.putRuntime(rt, delivered)
	o.layer["serve.window_p99_ms"] = quantile(lat, 0.99)
	o.layer["serve.late_share"] = float64(late) / float64(max(windowsDue, 1))
	o.layer["serve.offered_items_per_s"] = rate
	o.layer["serve.push_us"] = float64(pushTime.Microseconds()) / float64(max(pushed, 1))
	o.layer["serve.queue_wait_p50_ms"] = quantile(queueWait, 0.5)
	o.layer["serve.queue_wait_p99_ms"] = quantile(queueWait, 0.99)
	o.layer["serve.exec_p50_ms.paper"] = quantile(execPaper, 0.5)
	o.layer["serve.exec_p50_ms.residual"] = quantile(execResidual, 0.5)
	if len(lateness) > 0 {
		o.layer["serve.generator_late_p99_ms"] = quantile(lateness, 0.99)
		o.layer["serve.generator_late_ms"] = slices.Max(lateness)
	}
	var fallbacks uint64
	for _, row := range stats.PerTenant {
		if !byID[row.ID].residual {
			fallbacks += row.Fallbacks
		}
	}
	o.layer["serve.shed"] = float64(stats.TotalShed)
	o.layer["serve.fallbacks"] = float64(fallbacks)
	if stats.TotalErrors > 0 {
		o.problem("%d windows failed in the engine", stats.TotalErrors)
	}
	if o.layer["intern.rotations"] <= 0 {
		o.problem("no tenant table rotated: the memory budget was not exercised")
	}
	if residualWindows == 0 || residualFast*10 > residualWindows {
		o.problem("residual tenants rode the stratified fast path (%d of %d windows)", residualFast, residualWindows)
	}

	if err := checkServeReference(o, tenants); err != nil {
		return nil, err
	}
	o.layer["failed_share"] = float64(o.failed) / float64(max(o.attempted, 1))
	if cfg.trace {
		explained, exec := a["trace.explained_ms"], a["trace.exec_ms"]
		delete(a, "trace.explained_ms")
		delete(a, "trace.exec_ms")
		a.perWindow(o, delivered)
		// Window time from due to delivery is generator lateness + push +
		// queue wait + execution; execution is split by the engine's own
		// phases, and what those leave unexplained is the remainder.
		if total := sumOf(lat); total > 0 {
			o.layer["trace.remainder_share"] = (exec - explained) / total
		}
	}
	return o, nil
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// checkServeReference compares every delivered window with a solo
// from-scratch R over that tenant's exact windowing.
func checkServeReference(o *runOut, tenants []*tenantRun) error {
	var mu sync.Mutex
	mismatches := 0
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := g; ti < len(tenants); ti += 2 {
				t := tenants[ti]
				prog, err := streamrule.LoadProgram(t.program(), bench.Inpre)
				if err != nil {
					errs[g] = err
					return
				}
				ref, err := streamrule.NewEngine(prog)
				if err != nil {
					errs[g] = err
					return
				}
				bad := 0
				for _, d := range t.deliveries {
					if d.emission < 0 {
						bad++
						continue
					}
					out, err := ref.Reason(t.items[d.emission*serveStep : d.emission*serveStep+serveSize])
					if err != nil {
						errs[g] = err
						return
					}
					if keyDigest(out.Answers) != d.digest {
						bad++
					}
				}
				mu.Lock()
				mismatches += bad
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if mismatches > 0 {
		o.failed += mismatches
		o.problem("%d delivered windows differ from the solo reference", mismatches)
	}
	return nil
}
