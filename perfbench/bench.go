package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	payless "payless"

	"payless/internal/market"
)

// setup_s is the median of a trace-0 run's set-ups: at least setupRepeats
// of them, and while the extra ones add up to less than setupBudget, up to
// setupMaxRepeats, so a set-up of milliseconds is timed often enough for a
// steady median. Workloads with fewer timed sessions set up extra sessions
// that they close untimed.
const (
	setupRepeats    = 5
	setupMaxRepeats = 40
	setupBudget     = time.Second
)

// session is one set-up instance of a workload, ready for its timed phase.
type session interface {
	// env is the market the session buys from.
	env() *marketEnv
	// timed runs the timed phase for d, checking answers against ref, and
	// adds what it measured to ph.
	timed(d time.Duration, ref map[string]uint64, ph *phase)
	close()
}

// spec describes a workload to runWorkload.
type spec struct {
	// sessions is how many sessions split the timed phase between them.
	sessions int
	// distinct lists every query whose answer the reference must know.
	distinct []string
	// setup builds session i; p is nil for untraced sessions.
	setup func(i int, p *probe) (session, error)
}

// phase is what a timed phase measured.
type phase struct {
	// lat are per-request latencies in ms.
	lat []float64
	// windows split the timed phase into stretches of like work; the open
	// one began at lat[windowStart].
	windows     []window
	windowStart int
	attempted   int
	failures    []string
	// billed is the workload's money metric (see each workload).
	billed float64
	// counters and meter are the client-side and seller-side counters of
	// the timed phase; entries the semantic store's size at its end.
	counters clientCounters
	meter    market.Meter
	entries  int
	// shed counts requests the daemon refused.
	shed int
	// proc sums the process counters over the timed phase.
	proc procStats
}

// window is one stretch of the timed phase. busy is the wall time its
// throughput is computed over, less the benchmark's own answer checking.
type window struct {
	lat  []float64
	busy time.Duration
}

// startWindow opens a window.
func (ph *phase) startWindow() { ph.windowStart = len(ph.lat) }

// endWindow closes the open window.
func (ph *phase) endWindow(busy time.Duration) {
	ph.windows = append(ph.windows, window{lat: ph.lat[ph.windowStart:], busy: busy})
}

// perWindow is the median over windows of f applied to each, so a stretch
// the host ran slow in moves the figure less than a pooled statistic.
func (ph *phase) perWindow(f func(w window) float64) float64 {
	vals := make([]float64, len(ph.windows))
	for i, w := range ph.windows {
		vals[i] = f(w)
	}
	return median(vals)
}

func (ph *phase) fail(format string, args ...any) {
	ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
}

// check compares one answer with the reference and returns the time the
// check took, which the caller keeps out of the throughput.
func (ph *phase) check(ref map[string]uint64, sql string, rows [][]string) time.Duration {
	start := time.Now()
	if want, ok := ref[sql]; !ok {
		ph.fail("no reference answer for %q", sql)
	} else if got := canonHash(rows); got != want {
		ph.fail("wrong answer (%d rows) for %q", len(rows), sql)
	}
	return time.Since(start)
}

// clientCounters are the Client.Metrics() counters the per-layer metrics
// read.
type clientCounters struct {
	calls, retries, walSynced                  int64
	cacheHits, cacheMisses, invalidations      int64
	schedDelayed, singleflightHits, schedSaved int64
}

func countersOf(s payless.MetricsSnapshot) clientCounters {
	return clientCounters{
		calls: s.Calls, retries: s.Retries, walSynced: s.WALSyncedAppends,
		cacheHits: s.PlanCacheHits, cacheMisses: s.PlanCacheMisses, invalidations: s.PlanCacheInvalidations,
		schedDelayed: s.SchedDelayedCalls, singleflightHits: s.SchedSingleflightHits, schedSaved: s.SchedMergedTransactionsSaved,
	}
}

func (c clientCounters) add(o clientCounters, sign int64) clientCounters {
	return clientCounters{
		calls: c.calls + sign*o.calls, retries: c.retries + sign*o.retries, walSynced: c.walSynced + sign*o.walSynced,
		cacheHits: c.cacheHits + sign*o.cacheHits, cacheMisses: c.cacheMisses + sign*o.cacheMisses,
		invalidations: c.invalidations + sign*o.invalidations, schedDelayed: c.schedDelayed + sign*o.schedDelayed,
		singleflightHits: c.singleflightHits + sign*o.singleflightHits, schedSaved: c.schedSaved + sign*o.schedSaved,
	}
}

func addMeter(a, b market.Meter, sign int64) market.Meter {
	return market.Meter{
		Calls:        a.Calls + sign*b.Calls,
		Records:      a.Records + sign*b.Records,
		Transactions: a.Transactions + sign*b.Transactions,
		Price:        a.Price + float64(sign)*b.Price,
	}
}

// procStats are the process counters the per-query allocation and GC
// share are computed from.
type procStats struct {
	alloc           uint64
	gcCPU, totalCPU float64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procStats{alloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// addSince adds what the counters grew by since before.
func (ps *procStats) addSince(before procStats) {
	now := readProc()
	ps.alloc += now.alloc - before.alloc
	ps.gcCPU += now.gcCPU - before.gcCPU
	ps.totalCPU += now.totalCPU - before.totalCPU
}

// runWorkload runs a workload. Untraced (trace 0), it measures the
// end-to-end metrics; traced (trace 1), it runs the workload once untraced
// for the process counters and the overhead baseline, then once traced for
// the per-layer metrics and the span dump.
func runWorkload(o options, w spec) (*outcome, error) {
	if o.trace {
		return runTraced(o, w)
	}
	var setups []float64
	var spent time.Duration
	for i := w.sessions; i < setupRepeats || (i < setupMaxRepeats && spent < setupBudget); i++ {
		start := time.Now()
		s, err := w.setup(i, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
		s.close()
		runtime.GC()
	}
	ph := &phase{}
	var liveHeap uint64
	err := runSessions(o, w, nil, ph, func(setup time.Duration) {
		setups = append(setups, setup.Seconds())
	}, func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		liveHeap = ms.HeapAlloc
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d requests, %d latency samples in %d windows, setups %v s\n",
		o.workload, ph.attempted, len(ph.lat), len(ph.windows), setups)
	pct := func(q float64) float64 {
		return ph.perWindow(func(w window) float64 { return quantile(w.lat, q) })
	}
	for _, w := range ph.windows {
		fmt.Fprintf(os.Stderr, "  window: %5d requests, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, %.1f/s\n",
			len(w.lat), quantile(w.lat, 0.5), quantile(w.lat, 0.95), quantile(w.lat, 0.99), float64(len(w.lat))/w.busy.Seconds())
	}
	return &outcome{attempted: ph.attempted, failures: ph.failures, metrics: map[string]float64{
		"setup_s":             median(setups),
		"latency_p50_ms":      pct(0.50),
		"latency_p95_ms":      pct(0.95),
		"throughput_qps":      ph.perWindow(func(w window) float64 { return float64(len(w.lat)) / w.busy.Seconds() }),
		"billed_transactions": ph.billed,
		"live_heap_mb":        float64(liveHeap) / 1e6,
	}}, nil
}

// runSessions sets up and runs each session in turn, the timed phase split
// evenly between them. The reference answers are computed once, after the
// first set-up and before any timing. setupDone receives each set-up's
// duration; lastDone runs after the last session's timed phase, before it
// closes.
func runSessions(o options, w spec, p *probe, ph *phase, setupDone func(time.Duration), lastDone func()) error {
	d := seconds(o.seconds / float64(w.sessions))
	var ref map[string]uint64
	for i := 0; i < w.sessions; i++ {
		start := time.Now()
		s, err := w.setup(i, p)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if setupDone != nil {
			setupDone(time.Since(start))
		}
		if ref == nil {
			if ref, err = s.env().reference(w.distinct); err != nil {
				s.close()
				return err
			}
		}
		runtime.GC()
		p.record(true)
		before := readProc()
		s.timed(d, ref, ph)
		ph.proc.addSince(before)
		p.record(false)
		if i == w.sessions-1 && lastDone != nil {
			lastDone()
		}
		s.close()
	}
	return nil
}

// tracedSeconds caps each pass of a traced run: the per-layer means settle
// well within it, and the span dump stays tens of megabytes.
const tracedSeconds = 10

func runTraced(o options, w spec) (*outcome, error) {
	o.seconds = min(o.seconds, tracedSeconds)
	// Untraced pass: process counters and the latency the traced pass is
	// compared with.
	plain := &phase{}
	if err := runSessions(o, w, nil, plain, nil, nil); err != nil {
		return nil, err
	}
	runtime.GC()

	p := newProbe()
	traced := &phase{}
	if err := runSessions(o, w, p, traced, nil, nil); err != nil {
		return nil, err
	}
	p.matchTraces()
	spans := p.spanTree()
	path := filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := dumpSpans(path, spans); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	self := selfTimes(spans)
	fmt.Fprintf(os.Stderr, "%s: spans written to %s\n%s", o.workload, path, describeSelf(self, len(traced.lat)))

	m := layerMetrics(p, traced, self)
	m["process.alloc_kb_per_query"] = float64(plain.proc.alloc) / 1024 / float64(max(len(plain.lat), 1))
	m["process.gc_cpu_fraction"] = ratio(plain.proc.gcCPU, plain.proc.totalCPU)
	m["obs.trace_overhead_ratio"] = ratio(mean(traced.lat), mean(plain.lat))
	return &outcome{
		attempted: plain.attempted + traced.attempted,
		failures:  append(plain.failures, traced.failures...),
		metrics:   m,
	}, nil
}

// layerMetrics derives the per-layer metrics of a traced phase.
func layerMetrics(p *probe, ph *phase, self map[string]float64) map[string]float64 {
	var (
		queries                                     float64
		parse, bind, optimize, execute, lookupUS    float64
		plans, boxes, kept                          float64
		lookups, fastPath                           float64
		estErr, buying                              float64
		boughtRecords, newRows, hitRows, allRecords float64
		walMicros, walCalls                         float64
	)
	for _, r := range p.requests {
		t := r.trace
		if t == nil {
			continue
		}
		queries++
		for _, s := range t.Spans {
			us := float64(s.Duration.Nanoseconds()) / 1e3
			switch s.Name {
			case "parse":
				parse += us
			case "bind":
				bind += us
			case "optimize":
				optimize += us
			case "execute":
				execute += us
			}
		}
		plans += float64(t.PlansEvaluated)
		boxes += float64(t.BoxesEnumerated)
		kept += float64(t.BoxesKept)
		lookups += float64(t.StoreLookups)
		fastPath += float64(t.StoreFastPathHits)
		lookupUS += float64(t.StoreLookupMicros)
		hitRows += float64(t.StoreHitRows)
		if billed := t.CallTransactions(); billed > 0 {
			buying++
			estErr += math.Abs(float64(t.EstTransactions-billed)) / float64(billed)
		}
		for _, c := range t.Calls {
			allRecords += float64(c.Records)
			if c.Recorded && c.Transactions > 0 {
				boughtRecords += float64(c.Records)
				newRows += float64(c.NewRows)
			}
			if c.WALMicros > 0 {
				walMicros += float64(c.WALMicros)
				walCalls++
			}
		}
	}
	var wire, reserve, settle []float64
	for _, iv := range p.timed {
		us := float64(iv.end.Sub(iv.start).Nanoseconds()) / 1e3
		switch iv.layer {
		case "connector.call":
			wire = append(wire, us)
		case "tenant.reserve":
			reserve = append(reserve, us)
		case "tenant.settle":
			settle = append(settle, us)
		}
	}
	requests := float64(max(ph.attempted, 1))
	q := math.Max(queries, 1)
	c := ph.counters
	return map[string]float64{
		"sqlparse.parse_us":            parse / q,
		"core.bind_us":                 bind / q,
		"core.optimize_us":             optimize / q,
		"core.plans_per_query":         plans / q,
		"core.plancache_hit_ratio":     ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)),
		"core.plancache_invalidations": float64(c.invalidations),
		"rewrite.boxes_per_query":      boxes / q,
		"rewrite.kept_ratio":           ratio(kept, boxes),
		"stats.est_error_ratio":        ratio(estErr, buying),
		"engine.execute_us":            execute / q,
		"engine.local_us":              self["engine.execute"] / q,
		"connector.call_us":            mean(wire),
		"connector.calls_per_query":    float64(len(wire)) / requests,
		"connector.retries":            float64(c.retries),
		"market.transactions_per_call": ratio(float64(ph.meter.Transactions), float64(ph.meter.Calls)),
		"market.page_fill_ratio":       ratio(float64(ph.meter.Records), float64(ph.meter.Transactions*tuplesPerTransaction)),
		"semstore.lookup_us":           lookupUS / q,
		"semstore.fastpath_ratio":      ratio(fastPath, lookups),
		"semstore.new_row_ratio":       ratio(newRows, boughtRecords),
		"semstore.reuse_ratio":         ratio(hitRows, hitRows+allRecords),
		"semstore.entries":             float64(ph.entries),
		"wal.append_us":                ratio(walMicros, walCalls),
		"wal.synced_appends":           float64(c.walSynced),
		"sched.delayed_ratio":          ratio(float64(c.schedDelayed), float64(c.calls)),
		"sched.singleflight_hits":      float64(c.singleflightHits),
		"sched.saved_transactions":     float64(c.schedSaved),
		"tenant.reserve_us":            mean(reserve),
		"tenant.settle_us":             mean(settle),
		"daemon.overhead_us":           self["daemon.request"] / requests,
		"daemon.shed_ratio":            float64(ph.shed) / requests,
		"payless.residual_us":          self["payless.query"] / q,
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
