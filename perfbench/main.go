// Command perfbench is the repository's end-to-end benchmark. It drives the
// real entry points — Pipeline.Run over a ParallelEngine, Pipeline.Run over
// a DistributedEngine with in-process loopback workers, and the multi-tenant
// Server — on seeded synthetic streams, checks every timed window's answers
// against a from-scratch reference computed outside the timed region, and
// prints one JSON result line.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash perfbench/run.sh --workload fig9_tumbling --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// first runs the same workload untraced in a child process (for the tracing
// overhead), then runs it traced in this process and reports the per-layer
// metrics. Every run is a fresh process, so the process-wide interning
// table starts empty.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"streamrule/internal/asp/intern"
)

// runConfig is what one invocation measures.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serveRate float64
}

// runOut is what a workload driver reports.
type runOut struct {
	attempted int
	failed    int
	// e2e holds the end-to-end metrics; layer the per-layer ones (traced
	// runs fill most of them, every run fills the ones its checks need).
	e2e   map[string]float64
	layer map[string]float64
	// problems lists failed correctness and non-vacuity checks.
	problems []string
}

func newRunOut() *runOut {
	return &runOut{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *runOut) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(runConfig) (*runOut, error){
	"fig9_tumbling":       runFig9,
	"fig7_sliding_dpr":    runFig7,
	"serve_mixed_tenants": runServe,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: fig9_tumbling, fig7_sliding_dpr or serve_mixed_tenants")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated input streams")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed region runs, in seconds")
	flag.IntVar(&trace, "trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	flag.Float64Var(&cfg.serveRate, "serve-rate", defaultServeRate, "serve_mixed_tenants: offered aggregate rate in items/s (0 = closed loop, for measuring capacity)")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, trace int) error {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) || cfg.serveRate < 0 {
		return errors.New("--seconds must be positive, --trace 0 or 1, --serve-rate not negative")
	}
	if n := intern.Default().Stats().Atoms; n != 0 {
		return fmt.Errorf("interning table holds %d atoms at process start", n)
	}
	host := hostRecord(cfg)
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	var base *result
	if cfg.trace {
		// The untraced baseline for trace.overhead_share runs in its own
		// process, exactly like a --trace 0 run.
		var err error
		if base, err = runChild(cfg); err != nil {
			return err
		}
	}
	out, err := drive(cfg)
	if err != nil {
		return err
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Correct: len(out.problems) == 0}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if cfg.trace {
		res.Correct = res.Correct && base.Correct
		if b, ok := base.Metrics["window_p50_ms"]; ok && b.Value > 0 {
			out.layer["trace.overhead_share"] = (out.e2e["window_p50_ms"] - b.Value) / b.Value
		}
		res.Metrics = pick(out.layer, perLayerMetrics)
	} else {
		res.Metrics = pick(out.e2e, endToEndMetrics)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := appendArtifact(host, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: artifact:", err)
	}
	fmt.Println(string(line))
	return nil
}

// pick selects the named metrics in the order given, with their units;
// a metric the workload does not exercise reads 0.
func pick(vals map[string]float64, names []metricDef) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, m := range names {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// runChild runs this workload untraced in a fresh process and parses its
// result line.
func runChild(cfg runConfig) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds), "--trace", "0", "--serve-rate", fmt.Sprint(cfg.serveRate))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("untraced baseline run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("untraced baseline run: %w", err)
	}
	return &res, nil
}

// appendArtifact records the host, the seed and the result of this run in
// .bench_build/perfbench-runs.jsonl, one JSON object per run.
func appendArtifact(host map[string]any, res result) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(".bench_build/perfbench-runs.jsonl", os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := map[string]any{"time": time.Now().UTC().Format(time.RFC3339), "host": host, "result": res}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
