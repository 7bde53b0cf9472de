package obs

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"
)

// latencyBuckets are the histogram upper bounds. Market round-trips live in
// the 1ms–10s range; everything slower lands in +Inf.
var latencyBuckets = [...]time.Duration{
	time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	(5 * time.Second) / 2,
	5 * time.Second,
	10 * time.Second,
}

// histogram is a fixed-bucket latency histogram. Counts are per-bucket
// (non-cumulative, one overflow bucket at the end); snapshots and the
// Prometheus rendering cumulate.
type histogram struct {
	counts [len(latencyBuckets) + 1]int64
	count  int64
	sum    time.Duration
}

// bucketOf is the index of d's bucket, len(latencyBuckets) for the
// overflow. Hot paths compute it before taking the registry lock.
func bucketOf(d time.Duration) int {
	return sort.Search(len(latencyBuckets), func(i int) bool { return d <= latencyBuckets[i] })
}

func (h *histogram) observe(bucket int, d time.Duration) {
	h.counts[bucket]++
	h.count++
	h.sum += d
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	var cum int64
	for i, le := range latencyBuckets {
		cum += h.counts[i]
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: cum})
	}
	return s
}

// Bucket is one cumulative histogram bucket: Count observations ≤ Le.
type Bucket struct {
	Le    time.Duration
	Count int64
}

// HistogramSnapshot is a point-in-time copy of a latency histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets []Bucket
}

// Quantile returns an upper bound on the q-quantile latency (q in [0,1]),
// resolved to bucket boundaries; 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	for _, b := range s.Buckets {
		if b.Count >= rank {
			return b.Le
		}
	}
	// Beyond the last bound: report the mean of the overflow as a stand-in.
	return s.Sum / time.Duration(s.Count)
}

// Snapshot is a point-in-time copy of every counter, gauge and histogram.
// It is also the registry's declaration: each field is one Prometheus
// family, named by its `metric` tag (",gauge" marks a level rather than a
// cumulative count) and described by its `help` tag. int64 fields are
// counters or gauges, float64 fields are money counters and
// HistogramSnapshot fields are latency histograms. Families render in field
// order.
type Snapshot struct {
	// Queries and QueryErrors count finished and failed queries.
	Queries     int64 `metric:"queries_total" help:"Queries executed."`
	QueryErrors int64 `metric:"query_errors_total" help:"Queries that failed."`
	// Calls/Records/Transactions/Price are the cumulative market bill.
	Calls        int64   `metric:"calls_total" help:"RESTful market calls."`
	Records      int64   `metric:"records_total" help:"Records returned by market calls."`
	Transactions int64   `metric:"transactions_total" help:"Transactions billed (ceil(records/t) per call)."`
	Price        float64 `metric:"price_total" help:"Money billed across all calls."`
	// Retries counts extra transport attempts across all calls.
	Retries int64 `metric:"call_retries_total" help:"Extra transport attempts beyond the first."`
	// StoreHits counts plan accesses served entirely from the semantic
	// store; StoreHitRows the rows served locally instead of bought.
	StoreHits    int64 `metric:"store_hits_total" help:"Plan accesses served entirely from the semantic store."`
	StoreHitRows int64 `metric:"store_hit_rows_total" help:"Rows served from the semantic store instead of bought."`
	// StoreLookups counts indexed coverage lookups, StoreLookupMicros their
	// cumulative duration, StorePrunedBoxes the stored boxes index pruning
	// skipped, and StoreFastPathHits lookups answered by a single containing
	// box. StoreDroppedEntries and StoreCompactedEntries count compaction:
	// new entries dropped as redundant and stored entries absorbed/merged.
	StoreLookups          int64 `metric:"store_lookups_total" help:"Indexed semantic-store coverage lookups."`
	StoreLookupMicros     int64 `metric:"store_lookup_micros_total" help:"Cumulative coverage-lookup wall-clock microseconds."`
	StorePrunedBoxes      int64 `metric:"store_pruned_boxes_total" help:"Stored boxes skipped by index pruning before subtraction."`
	StoreFastPathHits     int64 `metric:"store_fastpath_total" help:"Coverage lookups answered by a single containing box."`
	StoreDroppedEntries   int64 `metric:"store_dropped_entries_total" help:"New coverage entries dropped as redundant on Record."`
	StoreCompactedEntries int64 `metric:"store_compacted_entries_total" help:"Stored coverage entries absorbed or merged by compaction."`

	// ReplayedCalls counts retried calls the replay ledger served without
	// re-billing (seller side).
	ReplayedCalls int64 `metric:"replayed_calls_total" help:"Retried calls served from the replay ledger without re-billing."`
	// BreakerOpens/BreakerShortCircuits/BreakerProbes count circuit-breaker
	// activity in the engine's fetch path (buyer side): breakers tripping
	// open, calls refused while open, and half-open probes let through.
	BreakerOpens         int64 `metric:"breaker_opens_total" help:"Circuit breakers tripped open."`
	BreakerShortCircuits int64 `metric:"breaker_short_circuits_total" help:"Calls refused locally while a dataset's breaker was open."`
	BreakerProbes        int64 `metric:"breaker_probes_total" help:"Half-open probe calls let through after a breaker cooldown."`
	// FailedQuerySpendTransactions/Price total the spend of queries that
	// ultimately failed — money salvaged into the semantic store.
	FailedQuerySpendTransactions int64   `metric:"failed_query_spend_transactions_total" help:"Transactions billed to queries that ultimately failed."`
	FailedQuerySpendPrice        float64 `metric:"failed_query_spend_price_total" help:"Money billed to queries that ultimately failed."`

	// WALAppends/WALAppendBytes/WALAppendMicros count write-ahead-log
	// appends in durable mode; WALSyncedAppends those fsynced before
	// Record returned. WALReplays counts recoveries, WALReplayedRecords
	// and WALSkippedRecords their applied/already-covered frames, and
	// WALTornTails recoveries that truncated a torn log tail.
	WALAppends         int64 `metric:"wal_appends_total" help:"Write-ahead-log appends in durable mode."`
	WALAppendBytes     int64 `metric:"wal_append_bytes_total" help:"Payload bytes appended to the write-ahead log."`
	WALAppendMicros    int64 `metric:"wal_append_micros_total" help:"Cumulative WAL append wall-clock microseconds (including fsyncs)."`
	WALSyncedAppends   int64 `metric:"wal_synced_appends_total" help:"WAL appends fsynced before Record returned."`
	WALReplays         int64 `metric:"wal_replays_total" help:"Durable-store recoveries that replayed the log."`
	WALReplayedRecords int64 `metric:"wal_replayed_records_total" help:"WAL records applied during recovery."`
	WALSkippedRecords  int64 `metric:"wal_skipped_records_total" help:"WAL records skipped as already covered by the loaded snapshot."`
	WALTornTails       int64 `metric:"wal_torn_tails_total" help:"Recoveries that truncated a torn WAL tail."`
	// Checkpoints/CheckpointBytes/CheckpointMicros count successful
	// snapshot checkpoints; CheckpointFailures the attempts that failed
	// (and left the log intact).
	Checkpoints        int64 `metric:"checkpoints_total" help:"Snapshot checkpoints completed."`
	CheckpointFailures int64 `metric:"checkpoint_failures_total" help:"Snapshot checkpoints that failed (log left intact)."`
	CheckpointBytes    int64 `metric:"checkpoint_bytes_total" help:"Bytes written by snapshot checkpoints."`
	CheckpointMicros   int64 `metric:"checkpoint_micros_total" help:"Cumulative checkpoint wall-clock microseconds."`
	// AuditDropped counts audit records lost to sink write failures.
	AuditDropped int64 `metric:"audit_dropped_total" help:"Audit records lost to sink write failures."`

	// PlanCacheHits/Misses count plan-template cache lookups; Invalidations
	// entries discarded because a coverage epoch or the stats version moved
	// (each also a miss); Evictions entries displaced by the LRU capacity.
	// PlansCached/Greedy/DP count queries by the planning strategy that
	// produced their plan.
	PlanCacheHits          int64 `metric:"plan_cache_hits_total" help:"Plan-template cache lookups served from cache."`
	PlanCacheMisses        int64 `metric:"plan_cache_misses_total" help:"Plan-template cache lookups that missed."`
	PlanCacheInvalidations int64 `metric:"plan_cache_invalidations_total" help:"Cached plan skeletons discarded as stale (coverage epoch or stats version moved)."`
	PlanCacheEvictions     int64 `metric:"plan_cache_evictions_total" help:"Cached plan skeletons displaced by the LRU capacity."`
	PlansCached            int64 `metric:"plans_cached_total" help:"Queries planned from the plan-template cache."`
	PlansGreedy            int64 `metric:"plans_greedy_total" help:"Queries planned by the greedy fast path."`
	PlansDP                int64 `metric:"plans_dp_total" help:"Queries planned by the full dynamic program."`

	// SchedSingleflightHits counts calls served by joining an identical
	// in-flight call; SchedMergedCalls wire calls fused out of several
	// cross-query boxes; SchedMergedTransactionsSaved the transactions the
	// merges saved versus billing the parts; SchedDelayedCalls the fetches
	// parked in the coalesce window.
	SchedSingleflightHits        int64 `metric:"sched_singleflight_hits_total" help:"Calls served by joining an identical in-flight market call."`
	SchedMergedCalls             int64 `metric:"sched_merged_calls_total" help:"Wire calls the scheduler fused out of several cross-query boxes."`
	SchedMergedTransactionsSaved int64 `metric:"sched_merged_transactions_saved_total" help:"Transactions saved by merged calls versus billing the parts."`
	SchedDelayedCalls            int64 `metric:"sched_delayed_calls_total" help:"Fetches parked in the coalesce window to accumulate merge candidates."`

	// FederationCalls counts market calls routed through the federation
	// layer; FederationFailovers endpoint attempts that hard-failed and
	// moved the call to the next-cheapest healthy endpoint;
	// FederationHedges hedge attempts launched after HedgeAfter;
	// FederationHedgeWins hedges whose secondary answered first; and
	// FederationExhausted calls that failed on every configured endpoint.
	FederationCalls     int64 `metric:"federation_calls_total" help:"Market calls routed through the federation layer."`
	FederationFailovers int64 `metric:"federation_failovers_total" help:"Endpoint attempts that hard-failed and failed over to the next endpoint."`
	FederationHedges    int64 `metric:"federation_hedged_calls_total" help:"Hedge attempts launched after the primary exceeded HedgeAfter."`
	FederationHedgeWins int64 `metric:"federation_hedge_wins_total" help:"Hedges whose secondary endpoint answered first."`
	FederationExhausted int64 `metric:"federation_exhausted_total" help:"Calls that failed on every configured endpoint."`

	// InflightQueries and QueueDepth are gauges: queries currently executing
	// and requests currently parked waiting for an execution slot.
	InflightQueries int64 `metric:"inflight_queries,gauge" help:"Queries currently executing."`
	QueueDepth      int64 `metric:"queue_depth,gauge" help:"Requests currently queued for an execution slot."`

	QueryLatency    HistogramSnapshot `metric:"query_duration_seconds" help:"End-to-end query latency."`
	CallLatency     HistogramSnapshot `metric:"call_duration_seconds" help:"Market call latency (including retries and paging)."`
	OptimizeLatency HistogramSnapshot `metric:"optimize_duration_seconds" help:"Optimizer latency per query."`
}

// Counter is a handle on one int64 family of Snapshot: a cumulative
// counter, or a gauge that moves both ways through the same Add.
type Counter struct{ slot int }

// Histogram is a handle on one latency-histogram family of Snapshot.
type Histogram struct{ slot int }

// The family handles, resolved by Snapshot field name at package init: a
// misspelt name panics at startup rather than counting nowhere.
var (
	Queries                      = counter("Queries")
	QueryErrors                  = counter("QueryErrors")
	Calls                        = counter("Calls")
	Records                      = counter("Records")
	Transactions                 = counter("Transactions")
	Retries                      = counter("Retries")
	StoreHits                    = counter("StoreHits")
	StoreHitRows                 = counter("StoreHitRows")
	StoreLookups                 = counter("StoreLookups")
	StoreLookupMicros            = counter("StoreLookupMicros")
	StorePrunedBoxes             = counter("StorePrunedBoxes")
	StoreFastPathHits            = counter("StoreFastPathHits")
	StoreDroppedEntries          = counter("StoreDroppedEntries")
	StoreCompactedEntries        = counter("StoreCompactedEntries")
	ReplayedCalls                = counter("ReplayedCalls")
	BreakerOpens                 = counter("BreakerOpens")
	BreakerShortCircuits         = counter("BreakerShortCircuits")
	BreakerProbes                = counter("BreakerProbes")
	FailedQuerySpendTransactions = counter("FailedQuerySpendTransactions")
	WALAppends                   = counter("WALAppends")
	WALAppendBytes               = counter("WALAppendBytes")
	WALAppendMicros              = counter("WALAppendMicros")
	WALSyncedAppends             = counter("WALSyncedAppends")
	WALReplays                   = counter("WALReplays")
	WALReplayedRecords           = counter("WALReplayedRecords")
	WALSkippedRecords            = counter("WALSkippedRecords")
	WALTornTails                 = counter("WALTornTails")
	Checkpoints                  = counter("Checkpoints")
	CheckpointFailures           = counter("CheckpointFailures")
	CheckpointBytes              = counter("CheckpointBytes")
	CheckpointMicros             = counter("CheckpointMicros")
	AuditDropped                 = counter("AuditDropped")
	PlanCacheHits                = counter("PlanCacheHits")
	PlanCacheMisses              = counter("PlanCacheMisses")
	PlanCacheInvalidations       = counter("PlanCacheInvalidations")
	PlanCacheEvictions           = counter("PlanCacheEvictions")
	PlansCached                  = counter("PlansCached")
	PlansGreedy                  = counter("PlansGreedy")
	PlansDP                      = counter("PlansDP")
	SchedSingleflightHits        = counter("SchedSingleflightHits")
	SchedMergedCalls             = counter("SchedMergedCalls")
	SchedMergedTransactionsSaved = counter("SchedMergedTransactionsSaved")
	SchedDelayedCalls            = counter("SchedDelayedCalls")
	FederationCalls              = counter("FederationCalls")
	FederationFailovers          = counter("FederationFailovers")
	FederationHedges             = counter("FederationHedges")
	FederationHedgeWins          = counter("FederationHedgeWins")
	FederationExhausted          = counter("FederationExhausted")
	InflightQueries              = counter("InflightQueries")
	QueueDepth                   = counter("QueueDepth")

	QueryLatency    = Histogram{slotOf("QueryLatency", kindHist)}
	CallLatency     = Histogram{slotOf("CallLatency", kindHist)}
	OptimizeLatency = Histogram{slotOf("OptimizeLatency", kindHist)}

	// The money families' float slots; only AddSpend writes them.
	billPrice       = slotOf("Price", kindFloat)
	failedBillPrice = slotOf("FailedQuerySpendPrice", kindFloat)
)

// kind is how a family's value is stored and rendered, by its field type.
type kind int

const (
	kindInt kind = iota
	kindFloat
	kindHist
	numKinds
)

// family is one declared Snapshot field.
type family struct {
	field      int    // Snapshot field index
	goName     string // Snapshot field name, what handles resolve by
	name, help string
	typ        string // Prometheus TYPE: counter, gauge or histogram
	kind       kind
	slot       int // index into the Metrics slice of its kind
}

// families is the registry, read once from Snapshot's struct tags; slots
// counts the storage each kind needs.
var families, slots = declare()

func declare() ([]family, [numKinds]int) {
	var fams []family
	var n [numKinds]int
	t := reflect.TypeOf(Snapshot{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, opt, _ := strings.Cut(f.Tag.Get("metric"), ",")
		fam := family{field: i, goName: f.Name, name: name, help: f.Tag.Get("help"), typ: "counter"}
		switch f.Type {
		case reflect.TypeOf(int64(0)):
			fam.kind = kindInt
			if opt == "gauge" {
				fam.typ = "gauge"
			}
		case reflect.TypeOf(float64(0)):
			fam.kind = kindFloat
		case reflect.TypeOf(HistogramSnapshot{}):
			fam.kind, fam.typ = kindHist, "histogram"
		default:
			panic("obs: Snapshot field " + f.Name + " has no metric kind")
		}
		if name == "" || fam.help == "" {
			panic("obs: Snapshot field " + f.Name + " lacks a metric or help tag")
		}
		fam.slot = n[fam.kind]
		n[fam.kind]++
		fams = append(fams, fam)
	}
	return fams, n
}

// slotOf resolves a handle by Snapshot field name, panicking on a name that
// is not a family of kind k.
func slotOf(field string, k kind) int {
	for _, f := range families {
		if f.goName == field && f.kind == k {
			return f.slot
		}
	}
	panic("obs: no metric family for Snapshot field " + field)
}

func counter(field string) Counter { return Counter{slotOf(field, kindInt)} }

// Delta is one increment of an AddAll batch.
type Delta struct {
	c Counter
	n int64
}

// By pairs the family with an increment for AddAll.
func (c Counter) By(n int64) Delta { return Delta{c, n} }

// Flag is 1 for true and 0 for false: a yes/no outcome as an increment.
func Flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Metrics accumulates the families Snapshot declares. One instance serves a
// Client (buyer side) or a Market (seller side); unused families simply
// stay zero. Each method takes the mutex once, whatever number of
// families it moves. Safe for concurrent use; a nil *Metrics ignores
// every observation. Create one with NewMetrics.
type Metrics struct {
	mu     sync.Mutex
	ints   []int64
	floats []float64
	hists  []histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		ints:   make([]int64, slots[kindInt]),
		floats: make([]float64, slots[kindFloat]),
		hists:  make([]histogram, slots[kindHist]),
	}
}

// Add moves one counter or gauge by n.
func (m *Metrics) Add(c Counter, n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.ints[c.slot] += n
	m.mu.Unlock()
}

// AddAll applies every delta in one critical section, so an observation
// that moves several families costs one lock.
func (m *Metrics) AddAll(ds ...Delta) {
	if m == nil {
		return
	}
	m.mu.Lock()
	for _, d := range ds {
		m.ints[d.c.slot] += d.n
	}
	m.mu.Unlock()
}

// Observe records one latency in a histogram.
func (m *Metrics) Observe(h Histogram, d time.Duration) {
	if m == nil {
		return
	}
	b := bucketOf(d)
	m.mu.Lock()
	m.hists[h.slot].observe(b, d)
	m.mu.Unlock()
}

// ObserveQuery folds one finished query into the registry: its end-to-end
// and optimize latencies plus what it cost at the market.
func (m *Metrics) ObserveQuery(total, optimize time.Duration, calls, records, transactions int64, price float64) {
	if m == nil {
		return
	}
	tb, ob := bucketOf(total), bucketOf(optimize)
	m.mu.Lock()
	m.ints[Queries.slot]++
	m.addSpend(calls, records, transactions, price, false)
	m.hists[QueryLatency.slot].observe(tb, total)
	m.hists[OptimizeLatency.slot].observe(ob, optimize)
	m.mu.Unlock()
}

// AddSpend folds market spend outside a successful query into the bill
// families: a served call on the seller side, or the spend of a FAILED
// query (failed=true). A failed query's spend is its salvage — the rows are
// in the semantic store, so a retry will not re-buy them — and is also
// booked in the failed-query-spend families so dashboards can see how much
// money sits behind failures.
func (m *Metrics) AddSpend(calls, records, transactions int64, price float64, failed bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addSpend(calls, records, transactions, price, failed)
}

// addSpend is AddSpend with m.mu held.
func (m *Metrics) addSpend(calls, records, transactions int64, price float64, failed bool) {
	m.ints[Calls.slot] += calls
	m.ints[Records.slot] += records
	m.ints[Transactions.slot] += transactions
	m.floats[billPrice] += price
	if failed {
		m.ints[FailedQuerySpendTransactions.slot] += transactions
		m.floats[failedBillPrice] += price
	}
}

// ObserveCall folds one completed market call into the registry: its
// latency and its transport retries beyond the first attempt.
func (m *Metrics) ObserveCall(latency time.Duration, retries int) {
	if m == nil {
		return
	}
	b := bucketOf(latency)
	m.mu.Lock()
	m.hists[CallLatency.slot].observe(b, latency)
	m.ints[Retries.slot] += int64(retries)
	m.mu.Unlock()
}

// Snapshot returns a consistent copy of the registry.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	v := reflect.ValueOf(&s).Elem()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range families {
		dst := v.Field(f.field)
		switch f.kind {
		case kindInt:
			dst.SetInt(m.ints[f.slot])
		case kindFloat:
			dst.SetFloat(m.floats[f.slot])
		case kindHist:
			dst.Set(reflect.ValueOf(m.hists[f.slot].snapshot()))
		}
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, one family per Snapshot field in field order. prefix namespaces
// the metric families ("payless" on the buyer side, "market" on the seller
// side).
func (m *Metrics) WritePrometheus(w io.Writer, prefix string) {
	v := reflect.ValueOf(m.Snapshot())
	for _, f := range families {
		WriteFamilyHead(w, prefix, f.name, f.help, f.typ)
		switch x := v.Field(f.field).Interface().(type) {
		case int64:
			fmt.Fprintf(w, "%s_%s %d\n", prefix, f.name, x)
		case float64:
			fmt.Fprintf(w, "%s_%s %g\n", prefix, f.name, x)
		case HistogramSnapshot:
			for _, b := range x.Buckets {
				fmt.Fprintf(w, "%s_%s_bucket{le=\"%g\"} %d\n", prefix, f.name, b.Le.Seconds(), b.Count)
			}
			fmt.Fprintf(w, "%s_%s_bucket{le=\"+Inf\"} %d\n", prefix, f.name, x.Count)
			fmt.Fprintf(w, "%s_%s_sum %g\n", prefix, f.name, x.Sum.Seconds())
			fmt.Fprintf(w, "%s_%s_count %d\n", prefix, f.name, x.Count)
		}
	}
}

// WriteFamilyHead writes the HELP/TYPE preamble of one family in the
// Prometheus text exposition format; typ is "counter", "gauge" or
// "histogram". Samples follow via WriteLabeledSample (or a plain
// fmt.Fprintf for unlabeled families).
func WriteFamilyHead(w io.Writer, prefix, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n", prefix, name, help, prefix, name, typ)
}

// WriteLabeledSample writes one sample carrying a single label pair. Go's
// %q quoting escapes backslash, double quote and newline exactly as the
// exposition format requires. The multi-tenant daemon renders its
// per-tenant families with it.
func WriteLabeledSample(w io.Writer, prefix, name, label, labelValue string, v int64) {
	fmt.Fprintf(w, "%s_%s{%s=%q} %d\n", prefix, name, label, labelValue, v)
}

// Handler serves the registry at GET in Prometheus text format.
func (m *Metrics) Handler(prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.WritePrometheus(w, prefix)
	})
}
