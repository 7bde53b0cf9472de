// Command perfbench is PayLess's time-and-money benchmark. It runs one of
// three seeded workloads against the public API over loopback HTTP, checks
// every answer against a reference client and every bill against the seller
// meter, and prints one JSON result line:
//
//	perfbench --workload buy_cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. Latency percentiles and throughput are the median over the
// windows a run is split into, so a stretch the host ran slow in moves them
// less. With --trace 1 it runs the workload once untraced and once traced,
// carries the per-layer metrics, and writes the traced pass's spans to a
// JSON-lines file under --workdir.
//
// Workloads (all on workload.DefaultWHWConfig() data and the paper's Table 1
// Q1–Q4 templates; the seed draws the query instances):
//
//   - buy_cold: serial episodes, each a fresh client replaying its own list,
//     so every query buys. Exercises the buy path: wire, semstore record,
//     statistics feedback and SQR over a growing store.
//   - reuse_warm: one client whose store a cold pass filled during set-up;
//     the timed replay must bill nothing. Exercises the reuse path: store
//     reads, local joins and aggregates, result encoding, planning.
//   - daemon_mixed: paylessd wiring (plan cache, call scheduler, durable
//     store fsynced per call) behind HTTP, four tenants, two closed-loop
//     clients sending a fixed stream where one request in three is a
//     fresh instance (the stream is sized to last about --seconds on a
//     2-vCPU machine). Exercises
//     admission, tenant accounting, the scheduler and concurrent store
//     reads and writes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a buyer sees, reported with --trace 0 on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"billed_transactions", "transactions"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics, reported with --trace 1 on every
// workload (zero where the workload does not exercise the layer).
var perLayer = []metricDef{
	{"sqlparse.parse_us", "us"},
	{"core.bind_us", "us"},
	{"core.optimize_us", "us"},
	{"core.plans_per_query", "count"},
	{"core.plancache_hit_ratio", "ratio"},
	{"core.plancache_invalidations", "count"},
	{"rewrite.boxes_per_query", "count"},
	{"rewrite.kept_ratio", "ratio"},
	{"stats.est_error_ratio", "ratio"},
	{"engine.execute_us", "us"},
	{"engine.local_us", "us"},
	{"connector.call_us", "us"},
	{"connector.calls_per_query", "count"},
	{"connector.retries", "count"},
	{"market.transactions_per_call", "count"},
	{"market.page_fill_ratio", "ratio"},
	{"semstore.lookup_us", "us"},
	{"semstore.fastpath_ratio", "ratio"},
	{"semstore.new_row_ratio", "ratio"},
	{"semstore.reuse_ratio", "ratio"},
	{"semstore.entries", "count"},
	{"wal.append_us", "us"},
	{"wal.synced_appends", "count"},
	{"sched.delayed_ratio", "ratio"},
	{"sched.singleflight_hits", "count"},
	{"sched.saved_transactions", "transactions"},
	{"tenant.reserve_us", "us"},
	{"tenant.settle_us", "us"},
	{"daemon.overhead_us", "us"},
	{"daemon.shed_ratio", "ratio"},
	{"payless.residual_us", "us"},
	{"process.alloc_kb_per_query", "KiB"},
	{"process.gc_cpu_fraction", "ratio"},
	{"obs.trace_overhead_ratio", "ratio"},
}

// metricName is the charset every reported name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

// outcome is what one workload run measured.
type outcome struct {
	attempted int
	// failures lists every error, shed, wrong answer and bill mismatch.
	failures []string
	metrics  map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(options) (*outcome, error){
	"buy_cold":     runBuyCold,
	"reuse_warm":   runReuseWarm,
	"daemon_mixed": runDaemonMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the result line. It returns
// 0 on a correct run, 1 when the correctness gate failed (the result line is
// still printed) and 2 when the run could not be made at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: buy_cold, reuse_warm or daemon_mixed")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed draws the same queries")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for span dumps and durable-store files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload buy_cold|reuse_warm|daemon_mixed, --trace 0|1, --seconds > 0")
		return 2
	}
	o.trace = trace == 1
	out, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, err := encodeResult(out, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "FAIL: %s\n", f)
	}
	fmt.Fprintln(stdout, string(line))
	if len(out.failures) > 0 {
		return 1
	}
	return 0
}

// encodeResult renders the result line with exactly the declared metrics.
func encodeResult(out *outcome, defs []metricDef) ([]byte, error) {
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		ms[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(out.metrics) != len(defs) {
		return nil, errors.New("workload measured metrics that are not declared")
	}
	attempted := out.attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(resultLine{
		Correct:   len(out.failures) == 0,
		Attempted: attempted,
		Failed:    len(out.failures),
		Metrics:   ms,
	})
}
