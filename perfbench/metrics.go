package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are printed by --trace 0 runs; they must match the
// end_to_end list of BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"items_per_s", "1/s"},
	{"window_p50_ms", "ms"},
	{"setup_s", "s"},
	{"alloc_mb_per_window", "MB"},
	{"heap_retained_mb", "MB"},
}

// perLayerMetrics are printed by --trace 1 runs; they must match the
// per_layer list of BENCHMARK.json. Times are per timed window unless the
// name says otherwise.
var perLayerMetrics = []metricDef{
	{"window_p90_ms", "ms"},
	{"stream.window_ms", "ms"},
	{"dfp.convert_ms", "ms"},
	{"dfp.facts_per_window", "count"},
	{"intern.atoms_start", "count"},
	{"intern.atoms_end", "count"},
	{"intern.rotations", "count"},
	{"intern.remap_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"core.communities", "count"},
	{"core.duplicated_preds", "count"},
	{"reasoner.partition_ms", "ms"},
	{"reasoner.filter_ms", "ms"},
	{"reasoner.combine_ms", "ms"},
	{"reasoner.dup_share", "share"},
	{"reasoner.partition_skew", "ratio"},
	{"r.convert_share", "share"},
	{"r.ground_share", "share"},
	{"r.solve_share", "share"},
	{"ground.scratch_ms", "ms"},
	{"ground.update_ms", "ms"},
	{"ground.incremental_share", "share"},
	{"ground.rules_per_window", "count"},
	{"ground.atoms_per_window", "count"},
	{"solve.solve_ms", "ms"},
	{"solve.fastpath_share", "share"},
	{"solve.decisions", "count"},
	{"solve.conflicts", "count"},
	{"solve.rule_visits", "count"},
	{"solve.answer_sets", "count"},
	{"transport.req_bytes_per_window", "B"},
	{"transport.resp_bytes_per_window", "B"},
	{"transport.write_ms", "ms"},
	{"transport.read_wait_ms", "ms"},
	{"transport.dict_hit_rate", "share"},
	{"transport.fallbacks", "count"},
	{"transport.redials", "count"},
	{"dpr.submit_ms", "ms"},
	{"dpr.worker_queue_ms", "ms"},
	{"dpr.wire_request_ms", "ms"},
	{"dpr.worker_ms", "ms"},
	{"dpr.wire_response_ms", "ms"},
	{"dpr.pipeline_wait_ms", "ms"},
	{"dpr.collect_ms", "ms"},
	{"dpr.in_flight_mean", "count"},
	{"serve.offered_items_per_s", "1/s"},
	{"serve.push_us", "us"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.exec_p50_ms.paper", "ms"},
	{"serve.exec_p50_ms.residual", "ms"},
	{"serve.window_p99_ms", "ms"},
	{"serve.late_share", "share"},
	{"serve.generator_late_ms", "ms"},
	{"serve.generator_late_p99_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.fallbacks", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_cycles", "count"},
	{"failed_share", "share"},
	{"trace.window_p50_ms", "ms"},
	{"trace.remainder_share", "share"},
	{"trace.overhead_share", "share"},
}

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// median is the median of a few values (it does not modify xs).
func median(xs []float64) float64 {
	return quantile(slices.Clone(xs), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rtCounters is a snapshot of the Go runtime's allocation and GC counters.
type rtCounters struct {
	allocBytes, gcCPU, totalCPU, gcCycles float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtCounters{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2), gcCycles: val(3)}
}

func (c rtCounters) sub(o rtCounters) rtCounters {
	return rtCounters{c.allocBytes - o.allocBytes, c.gcCPU - o.gcCPU, c.totalCPU - o.totalCPU, c.gcCycles - o.gcCycles}
}

func (c *rtCounters) add(o rtCounters) {
	c.allocBytes += o.allocBytes
	c.gcCPU += o.gcCPU
	c.totalCPU += o.totalCPU
	c.gcCycles += o.gcCycles
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// putRuntime stores the timed region's allocation and GC figures.
func (o *runOut) putRuntime(c rtCounters, windows int) {
	if windows > 0 {
		o.e2e["alloc_mb_per_window"] = c.allocBytes / 1e6 / float64(windows)
	}
	if c.totalCPU > 0 {
		o.layer["runtime.gc_cpu_share"] = c.gcCPU / c.totalCPU
	}
	o.layer["runtime.gc_cycles"] = c.gcCycles
}

// putLatencies stores the window latency percentiles (ms).
func (o *runOut) putLatencies(lat []float64) {
	o.e2e["window_p50_ms"] = quantile(lat, 0.5)
	o.layer["trace.window_p50_ms"] = o.e2e["window_p50_ms"]
	o.layer["window_p90_ms"] = quantile(lat, 0.9)
}

// timeSetup runs setup reps times and returns the median wall time in
// seconds; the setup function keeps the last rep's product and releases the
// earlier ones. Each rep starts after a collection, so the garbage of the
// earlier reps is not collected inside a later one.
func timeSetup(reps int, setup func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// hostRecord describes the machine, toolchain, code and seed of a run.
func hostRecord(cfg runConfig) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"serve_rate": cfg.serveRate,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the git commit when the checkout is a
// repository, otherwise a digest of its Go sources and module file.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
