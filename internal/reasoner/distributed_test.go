package reasoner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"streamrule/internal/asp/parser"
	"streamrule/internal/core"
	"streamrule/internal/dfp"
	"streamrule/internal/progen"
	"streamrule/internal/rdf"
	"streamrule/internal/stream"
	"streamrule/internal/testleak"
	"streamrule/internal/transport"
)

// startWorkers spins up n loopback worker servers and returns their
// addresses. Each runs the production WorkerHandler — a full reasoner per
// session — on an ephemeral localhost port.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := transport.NewServer("127.0.0.1:0", NewWorkerHandler(), transport.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

func testDPROptions(src string, workers []string) DPROptions {
	return DPROptions{
		Workers:          workers,
		ProgramSource:    src,
		StragglerTimeout: 5 * time.Second,
	}
}

// runDistributedDifferential drives a DPR and two local oracles (PR of the
// same plan, plain R) over the identical emission sequence, asserting
// key-identical answers on every window (the systems are on different
// interning tables, so raw IDs are not comparable).
func runDistributedDifferential(t *testing.T, label string, dpr *DPR, prOracle *PR, rOracle *R, emissions []stream.WindowDelta) {
	t.Helper()
	for wi, wd := range emissions {
		var d *Delta
		if wd.Incremental {
			d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		got, err := dpr.ProcessDelta(wd.Window, d)
		if err != nil {
			t.Fatalf("%s window %d: DPR: %v", label, wi, err)
		}
		wantPR, err := prOracle.Process(wd.Window)
		if err != nil {
			t.Fatalf("%s window %d: PR oracle: %v", label, wi, err)
		}
		wantR, err := rOracle.Process(wd.Window)
		if err != nil {
			t.Fatalf("%s window %d: R oracle: %v", label, wi, err)
		}
		if got.Skipped != wantPR.Skipped {
			t.Fatalf("%s window %d: skipped = %d, PR oracle %d", label, wi, got.Skipped, wantPR.Skipped)
		}
		gs, ps, rs := answerKeySigs(got.Answers), answerKeySigs(wantPR.Answers), answerKeySigs(wantR.Answers)
		if !slices.Equal(gs, ps) {
			t.Fatalf("%s window %d: DPR diverges from PR\nDPR: %v\nPR:  %v", label, wi, gs, ps)
		}
		if !slices.Equal(gs, rs) {
			t.Fatalf("%s window %d: DPR diverges from monolithic R\nDPR: %v\nR:   %v", label, wi, gs, rs)
		}
	}
}

// TestDifferentialDistributedVsLocal is the acceptance centerpiece: DPR
// over k loopback workers must produce answer sets identical to the
// in-process PR and to the monolithic R on the progen harness for every
// window — including with memory budgets and rotation active on the
// workers (the budgeted variants run fresh-constant streams so worker
// tables actually rotate) and on the coordinator, under either budget knob.
func TestDifferentialDistributedVsLocal(t *testing.T) {
	type winCfg struct{ size, step int }
	windows := []winCfg{
		{20, 5},  // the paper's sliding shape
		{20, 20}, // tumbling degenerate
	}
	programs := []struct {
		name        string
		cfg         progen.Config
		budget      int
		budgetBytes int64
	}{
		{"flat", progen.Config{Derived: 3}, 0, 0},
		{"negation-heavy", progen.Config{Derived: 5, UnaryInputs: 2, BinaryInputs: 2}, 0, 0},
		{"recursive", progen.Config{Derived: 3, Recursion: true, Consts: 4}, 0, 0},
		{"constraints", progen.Config{Derived: 4, Constraints: true}, 0, 0},
		{"ineligible-fallback", progen.Config{Derived: 3, Ineligible: true}, 0, 0},
		{"flat-fresh-budgeted", progen.Config{Derived: 3, Fresh: 0.6}, 96, 0},
		{"recursive-fresh-budgeted", progen.Config{Derived: 3, Recursion: true, Consts: 4, Fresh: 0.4}, 96, 0},
		// The byte knob alone: the coordinator must rotate under it too.
		{"flat-fresh-bytes-budgeted", progen.Config{Derived: 3, BinaryInputs: 2, Fresh: 0.6}, 0, 4096},
	}
	workers := startWorkers(t, 2)
	for pi, pc := range programs {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(900 + pi)))
			gp := progen.New(rnd, pc.cfg)
			prog, err := parser.Parse(gp.Src)
			if err != nil {
				t.Fatalf("generated program does not parse: %v\n%s", err, gp.Src)
			}
			cfg := Config{Program: prog, Inpre: gp.Inpre, Arities: dfp.Arities(gp.Arities)}
			budgeted := pc.budget > 0 || pc.budgetBytes > 0
			var triples []rdf.Triple
			if budgeted {
				seq := 0
				triples = gp.StreamFresh(rnd, pc.cfg, 160, &seq)
			} else {
				triples = gp.Stream(rnd, pc.cfg, 140)
			}

			analysis, err := core.Analyze(prog, gp.Inpre, 1.0)
			if err != nil {
				t.Skipf("program has no partitioning plan: %v", err)
			}

			for _, wc := range windows {
				emissions := emitWindows(triples, wc.size, wc.step)
				if len(emissions) == 0 {
					t.Fatalf("no emissions for %+v", wc)
				}
				dprCfg := cfg
				dprCfg.MemoryBudget = pc.budget
				dprCfg.MemoryBudgetBytes = pc.budgetBytes
				dpr, err := NewDPR(dprCfg, NewPlanPartitioner(analysis.Plan), testDPROptions(gp.Src, workers))
				if err != nil {
					t.Fatalf("NewDPR: %v", err)
				}
				prOracle, err := NewPR(cfg, NewPlanPartitioner(analysis.Plan))
				if err != nil {
					t.Fatal(err)
				}
				rOracle, err := NewR(cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s[size=%d step=%d]", pc.name, wc.size, wc.step)
				runDistributedDifferential(t, label, dpr, prOracle, rOracle, emissions)

				ts := dpr.TransportStats()
				if ts.RemoteWindows == 0 {
					t.Errorf("%s: every partition window fell back locally; the distributed path was never exercised", label)
				}
				if ts.LocalFallbacks > 0 {
					t.Errorf("%s: %d unexpected local fallbacks with healthy workers", label, ts.LocalFallbacks)
				}
				if budgeted && ts.WorkerRotations == 0 {
					t.Errorf("%s: fresh-constant stream with budget %d/%dB never rotated a worker table", label, pc.budget, pc.budgetBytes)
				}
				if st := dpr.Stats(); budgeted {
					if st.Table.Rotations == 0 {
						t.Errorf("%s: fresh-constant stream with budget %d/%dB never rotated the coordinator table (%d atoms, %d bytes)",
							label, pc.budget, pc.budgetBytes, st.Table.Atoms, st.Table.Bytes)
					}
					if st.Budget != pc.budget || st.BudgetBytes != pc.budgetBytes {
						t.Errorf("%s: Stats reports budget %d/%dB, configured %d/%dB", label, st.Budget, st.BudgetBytes, pc.budget, pc.budgetBytes)
					}
				}
				dpr.Close()
			}
		})
	}
}

// TestDistributedDictionaryHitRate pins the steady-state wire economics on
// a repeating-constant stream (the paper's program P): after the first
// windows every symbol is already in the per-worker dictionaries, so the
// deltas are empty, nothing new is shipped, and the hit rate exceeds 90%.
func TestDistributedDictionaryHitRate(t *testing.T) {
	src := `
very_slow_speed(X) :- average_speed(X,Y), Y < 20.
many_cars(X) :- car_number(X,Y), Y > 40.
traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
give_notification(X) :- traffic_jam(X).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	inpre := []string{"average_speed", "car_number", "traffic_light"}
	cfg := Config{Program: prog, Inpre: inpre, OutputPreds: []string{"traffic_jam", "give_notification"}}

	// Bounded vocabulary: 6 locations recurring forever. Traffic lights are
	// rare so traffic_jam actually derives most windows (non-empty answers
	// are what exercise the dictionary).
	rnd := rand.New(rand.NewSource(41))
	var triples []rdf.Triple
	for i := 0; i < 900; i++ {
		loc := fmt.Sprintf("l%d", rnd.Intn(6))
		switch v := rnd.Intn(10); {
		case v < 5:
			triples = append(triples, rdf.Triple{S: loc, P: "average_speed", O: fmt.Sprint(rnd.Intn(40))})
		case v < 9:
			triples = append(triples, rdf.Triple{S: loc, P: "car_number", O: fmt.Sprint(30 + rnd.Intn(40))})
		default:
			triples = append(triples, rdf.Triple{S: "l5", P: "traffic_light", O: "true"})
		}
	}
	emissions := emitWindows(triples, 90, 30)

	analysis, err := core.Analyze(prog, inpre, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	workers := startWorkers(t, 2)
	dpr, err := NewDPR(cfg, NewPlanPartitioner(analysis.Plan), testDPROptions(src, workers))
	if err != nil {
		t.Fatal(err)
	}
	defer dpr.Close()

	var shippedEarly int64
	for wi, wd := range emissions {
		var d *Delta
		if wd.Incremental {
			d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
		}
		if _, err := dpr.ProcessDelta(wd.Window, d); err != nil {
			t.Fatalf("window %d: %v", wi, err)
		}
		if wi == 2 {
			shippedEarly = dpr.TransportStats().DictShipped
		}
	}
	ts := dpr.TransportStats()
	if ts.RemoteWindows == 0 || ts.DictRefs == 0 {
		t.Fatalf("distributed path never exercised: %+v", ts)
	}
	if hr := ts.DictHitRate(); hr <= 0.9 {
		t.Errorf("dictionary hit rate %.3f, want > 0.9 (refs %d, shipped %d)", hr, ts.DictRefs, ts.DictShipped)
	}
	if shippedEarly == 0 {
		t.Error("nothing shipped in the first windows; the dictionary was never populated")
	}
	if ts.DictShipped != shippedEarly {
		t.Errorf("dictionary kept shipping on a repeating vocabulary: %d entries after window 2, %d at the end",
			shippedEarly, ts.DictShipped)
	}
	if st := dpr.Stats(); st.Transport == nil || st.Transport.BytesSent == 0 {
		t.Error("Stats() does not surface transport metrics")
	}
}

// distributedFixture builds a small paper-shaped program, stream, and
// oracles for the failure-mode tests.
type distributedFixture struct {
	src       string
	cfg       Config
	plan      *core.Analysis
	emissions []stream.WindowDelta
}

func newDistributedFixture(t *testing.T) *distributedFixture {
	t.Helper()
	src := `
very_slow_speed(X) :- average_speed(X,Y), Y < 20.
many_cars(X) :- car_number(X,Y), Y > 40.
traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	inpre := []string{"average_speed", "car_number", "traffic_light"}
	cfg := Config{Program: prog, Inpre: inpre, OutputPreds: []string{"traffic_jam"}}
	rnd := rand.New(rand.NewSource(77))
	var triples []rdf.Triple
	for i := 0; i < 400; i++ {
		loc := fmt.Sprintf("l%d", rnd.Intn(5))
		switch v := rnd.Intn(10); {
		case v < 5:
			triples = append(triples, rdf.Triple{S: loc, P: "average_speed", O: fmt.Sprint(rnd.Intn(40))})
		case v < 9:
			triples = append(triples, rdf.Triple{S: loc, P: "car_number", O: fmt.Sprint(30 + rnd.Intn(40))})
		default:
			triples = append(triples, rdf.Triple{S: "l4", P: "traffic_light", O: "true"})
		}
	}
	analysis, err := core.Analyze(prog, inpre, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return &distributedFixture{
		src:       src,
		cfg:       cfg,
		plan:      analysis,
		emissions: emitWindows(triples, 60, 20),
	}
}

// assertWindow checks one DPR window against a fresh-grounding R oracle.
func (f *distributedFixture) assertWindow(t *testing.T, wi int, dpr *DPR, oracle *R, wd stream.WindowDelta) {
	t.Helper()
	var d *Delta
	if wd.Incremental {
		d = &Delta{Added: wd.Added, Retracted: wd.Retracted}
	}
	got, err := dpr.ProcessDelta(wd.Window, d)
	if err != nil {
		t.Fatalf("window %d: DPR: %v", wi, err)
	}
	want, err := oracle.Process(wd.Window)
	if err != nil {
		t.Fatalf("window %d: oracle: %v", wi, err)
	}
	if gs, ws := answerKeySigs(got.Answers), answerKeySigs(want.Answers); !slices.Equal(gs, ws) {
		t.Fatalf("window %d: answers diverge\nDPR:    %v\noracle: %v", wi, gs, ws)
	}
}

// TestDistributedWorkerDeathFallsBack kills the only worker mid-run: the
// coordinator must keep producing correct answers through the local
// fallback, without erroring a single window.
func TestDistributedWorkerDeathFallsBack(t *testing.T) {
	t.Cleanup(testleak.Check(t))
	f := newDistributedFixture(t)
	srv, err := transport.NewServer("127.0.0.1:0", NewWorkerHandler(), transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	opts := testDPROptions(f.src, []string{srv.Addr()})
	opts.StragglerTimeout = 2 * time.Second
	opts.DialTimeout = time.Second
	dpr, err := NewDPR(f.cfg, NewPlanPartitioner(f.plan.Plan), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dpr.Close()
	oracle, err := NewR(f.cfg)
	if err != nil {
		t.Fatal(err)
	}

	killAt := len(f.emissions) / 2
	for wi, wd := range f.emissions {
		if wi == killAt {
			srv.Close() // the worker dies between windows; sessions break mid-stream
		}
		f.assertWindow(t, wi, dpr, oracle, wd)
	}
	ts := dpr.TransportStats()
	if ts.RemoteWindows == 0 {
		t.Error("worker never served a window before dying")
	}
	if ts.LocalFallbacks == 0 {
		t.Error("worker death never forced a local fallback")
	}
}

// TestDistributedWorkerRestartReplaysDictionary restarts the worker on the
// same address mid-run: the coordinator must redial, the fresh session must
// re-ship its dictionary from scratch (the delta replay), and answers must
// stay correct throughout.
func TestDistributedWorkerRestartReplaysDictionary(t *testing.T) {
	t.Cleanup(testleak.Check(t))
	f := newDistributedFixture(t)
	srv, err := transport.NewServer("127.0.0.1:0", NewWorkerHandler(), transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	addr := srv.Addr()

	opts := testDPROptions(f.src, []string{addr})
	opts.StragglerTimeout = 2 * time.Second
	opts.DialTimeout = time.Second
	dpr, err := NewDPR(f.cfg, NewPlanPartitioner(f.plan.Plan), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dpr.Close()
	oracle, err := NewR(f.cfg)
	if err != nil {
		t.Fatal(err)
	}

	restartAt := len(f.emissions) / 2
	var shippedBefore int64
	for wi, wd := range f.emissions {
		if wi == restartAt {
			shippedBefore = dpr.TransportStats().DictShipped
			srv.Close()
			srv, err = transport.NewServer(addr, NewWorkerHandler(), transport.ServerOptions{})
			if err != nil {
				t.Fatalf("restart worker on %s: %v", addr, err)
			}
			go srv.Serve()
		}
		f.assertWindow(t, wi, dpr, oracle, wd)
	}
	defer srv.Close()

	ts := dpr.TransportStats()
	if ts.Redials == 0 {
		t.Error("coordinator never redialed the restarted worker")
	}
	if shippedBefore == 0 {
		t.Fatal("nothing shipped before the restart; the replay assertion is vacuous")
	}
	if ts.DictShipped <= shippedBefore {
		t.Errorf("restarted session never re-shipped its dictionary (%d entries before restart, %d after)",
			shippedBefore, ts.DictShipped)
	}
	if ts.RemoteWindows <= int64(restartAt) {
		t.Errorf("no remote windows after the restart (remote %d, restart at %d)", ts.RemoteWindows, restartAt)
	}
}

// TestDistributedTinyFrameFallsBack caps frames below any real window: every
// round must fail cleanly and the coordinator must still produce correct
// answers locally.
func TestDistributedTinyFrameFallsBack(t *testing.T) {
	t.Cleanup(testleak.Check(t))
	f := newDistributedFixture(t)
	srv, err := transport.NewServer("127.0.0.1:0", NewWorkerHandler(), transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	opts := testDPROptions(f.src, []string{srv.Addr()})
	opts.MaxFrame = 640 // the handshake fits; no window does
	opts.StragglerTimeout = 2 * time.Second
	dpr, err := NewDPR(f.cfg, NewPlanPartitioner(f.plan.Plan), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dpr.Close()
	oracle, err := NewR(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for wi, wd := range f.emissions[:4] {
		f.assertWindow(t, wi, dpr, oracle, wd)
	}
	if ts := dpr.TransportStats(); ts.LocalFallbacks == 0 {
		t.Error("oversized frames never forced a local fallback")
	}
}

// TestNewDPRRequiresReachableWorker pins the fail-fast contract: a fleet
// where no worker is reachable is a configuration error, not a silent
// all-local deployment.
func TestNewDPRRequiresReachableWorker(t *testing.T) {
	f := newDistributedFixture(t)
	opts := testDPROptions(f.src, []string{"127.0.0.1:1"})
	opts.DialTimeout = 200 * time.Millisecond
	if _, err := NewDPR(f.cfg, NewPlanPartitioner(f.plan.Plan), opts); err == nil {
		t.Fatal("NewDPR succeeded with no reachable worker")
	}
}
