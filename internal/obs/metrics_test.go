package obs

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsCountersAndPrometheus(t *testing.T) {
	m := NewMetrics()
	m.ObserveQuery(10*time.Millisecond, time.Millisecond, 2, 150, 3, 3)
	m.Add(QueryErrors, 1)
	m.ObserveCall(4*time.Millisecond, 1)
	m.ObserveCall(6*time.Millisecond, 0)
	m.AddAll(StoreHits.By(1), StoreHitRows.By(25))

	s := m.Snapshot()
	if s.Queries != 1 || s.QueryErrors != 1 || s.Calls != 2 || s.Transactions != 3 {
		t.Errorf("snapshot counters: %+v", s)
	}
	if s.Retries != 1 || s.StoreHits != 1 || s.StoreHitRows != 25 {
		t.Errorf("call and store-hit counters: %+v", s)
	}
	if s.CallLatency.Count != 2 {
		t.Errorf("call latency count = %d, want 2", s.CallLatency.Count)
	}
	if q := s.CallLatency.Quantile(0.5); q < 4*time.Millisecond || q > 10*time.Millisecond {
		t.Errorf("p50 call latency = %v", q)
	}

	var b strings.Builder
	m.WritePrometheus(&b, "payless")
	out := b.String()
	for _, want := range []string{
		"payless_queries_total 1",
		"payless_query_errors_total 1",
		"payless_calls_total 2",
		"payless_transactions_total 3",
		"payless_store_hit_rows_total 25",
		"payless_call_duration_seconds_count 2",
		`payless_call_duration_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// observeServedCall is what the seller books per served call.
func observeServedCall(m *Metrics, latency time.Duration, records, transactions int64, price float64) {
	m.AddSpend(1, records, transactions, price, false)
	m.Observe(CallLatency, latency)
}

func TestMetricsObserveCallSellerSide(t *testing.T) {
	m := NewMetrics()
	observeServedCall(m, 2*time.Millisecond, 150, 2, 2)
	observeServedCall(m, 3*time.Millisecond, 50, 1, 1)
	s := m.Snapshot()
	if s.Calls != 2 || s.Records != 200 || s.Transactions != 3 || s.Price != 3 {
		t.Errorf("seller-side counters: %+v", s)
	}
	srv := httptest.NewServer(m.Handler("market"))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "market_transactions_total 3") {
		t.Errorf("metrics endpoint output:\n%s", body)
	}
}

// fillEveryFamily moves every family off zero with a distinct value. The
// golden file holds its exposition as the hand-written registry rendered
// it, so the declarative one must reproduce every name, HELP text, TYPE,
// value format and ordering.
func fillEveryFamily(m *Metrics) {
	m.ObserveQuery(10*time.Millisecond, time.Millisecond, 2, 150, 3, 3)
	m.ObserveQuery(12*time.Second, 250*time.Microsecond, 1, 7, 1, 0.5) // overflows the last bucket
	m.Add(QueryErrors, 1)
	m.ObserveCall(4*time.Millisecond, 1)
	m.ObserveCall(6*time.Millisecond, 0)
	m.AddAll(StoreHits.By(1), StoreHitRows.By(25))
	observeServedCall(m, 2*time.Millisecond, 150, 2, 2)
	observeServedCall(m, 3*time.Millisecond, 50, 1, 1.25)
	m.AddAll(StoreLookups.By(1), StoreLookupMicros.By(12), StorePrunedBoxes.By(4), StoreFastPathHits.By(Flag(true)))
	m.AddAll(StoreLookups.By(1), StoreLookupMicros.By(8), StorePrunedBoxes.By(1), StoreFastPathHits.By(Flag(false)))
	m.AddAll(StoreDroppedEntries.By(1), StoreCompactedEntries.By(2+1))
	m.AddAll(StoreCompactedEntries.By(3))

	fillFailureFamilies(m)
	fillDurabilityFamilies(m)

	// Planning.
	m.Add(PlanCacheHits, 1)
	m.AddAll(PlanCacheMisses.By(1), PlanCacheInvalidations.By(1))
	m.Add(PlanCacheMisses, 1)
	m.Add(PlanCacheEvictions, 1)
	m.Add(PlansCached, 1)
	m.Add(PlansGreedy, 2)
	m.Add(PlansDP, 3)

	// Scheduler.
	m.Add(SchedSingleflightHits, 1)
	m.Add(SchedSingleflightHits, 1)
	m.AddAll(SchedMergedCalls.By(1), SchedMergedTransactionsSaved.By(5))
	m.AddAll(SchedMergedCalls.By(1))
	m.Add(SchedDelayedCalls, 3)

	fillFederationFamilies(m)
	fillOverloadFamilies(m)
}

// fillFailureFamilies moves the failure-recovery families: replayed calls,
// the breaker's transitions and the spend behind a failed query.
func fillFailureFamilies(m *Metrics) {
	m.Add(ReplayedCalls, 1)
	m.Add(BreakerOpens, 1)
	m.Add(BreakerShortCircuits, 1)
	m.Add(BreakerProbes, 1)
	m.AddSpend(2, 150, 3, 3, true)
}

// fillDurabilityFamilies moves the durable store's families: two WAL
// appends (one synced), a replay, a checkpoint and a failed one, and a
// dropped audit record.
func fillDurabilityFamilies(m *Metrics) {
	m.AddAll(WALAppends.By(1), WALAppendBytes.By(100), WALAppendMicros.By(40), WALSyncedAppends.By(Flag(true)))
	m.AddAll(WALAppends.By(1), WALAppendBytes.By(50), WALAppendMicros.By(10), WALSyncedAppends.By(Flag(false)))
	m.AddAll(WALReplays.By(1), WALReplayedRecords.By(7), WALSkippedRecords.By(2), WALTornTails.By(Flag(true)))
	m.AddAll(Checkpoints.By(1), CheckpointBytes.By(1000), CheckpointMicros.By(300))
	m.Add(CheckpointFailures, 1)
	m.Add(AuditDropped, 1)
}

// fillFederationFamilies moves the federated caller's families.
func fillFederationFamilies(m *Metrics) {
	m.Add(FederationCalls, 1)
	m.Add(FederationCalls, 1)
	m.Add(FederationFailovers, 1)
	m.Add(FederationHedges, 1)
	m.Add(FederationHedgeWins, 1)
	m.Add(FederationExhausted, 1)
}

// fillOverloadFamilies moves the overload gauges both ways, ending at
// inflight 1 and queue depth 2.
func fillOverloadFamilies(m *Metrics) {
	m.Add(InflightQueries, 1)
	m.Add(InflightQueries, 1)
	m.Add(InflightQueries, -1)
	m.AddAll(QueueDepth.By(1), QueueDepth.By(1), QueueDepth.By(1), QueueDepth.By(-1))
}

// checkFamilies asserts each snapshot value and that each exposition line
// appears under every given prefix ("payless" on the buyer client,
// "market" on the seller handler).
func checkFamilies(t *testing.T, m *Metrics, values []familyValue, lines []string, prefixes ...string) {
	t.Helper()
	for _, c := range values {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	for _, prefix := range prefixes {
		var b strings.Builder
		m.WritePrometheus(&b, prefix)
		out := b.String()
		for _, line := range lines {
			want := strings.ReplaceAll(line, "PREFIX", prefix)
			if !strings.Contains(out, want+"\n") {
				t.Errorf("prometheus output missing %q", want)
			}
		}
	}
}

// familyValue is one Snapshot field checked by checkFamilies.
type familyValue struct {
	name      string
	got, want any
}

// TestFailureMetricsFamilies pins the failure-recovery families: chaos and
// crash CI jobs and dashboards grep these names under both prefixes.
func TestFailureMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	fillFailureFamilies(m)
	s := m.Snapshot()
	checkFamilies(t, m, []familyValue{
		{"ReplayedCalls", s.ReplayedCalls, int64(1)},
		{"BreakerOpens", s.BreakerOpens, int64(1)},
		{"BreakerShortCircuits", s.BreakerShortCircuits, int64(1)},
		{"BreakerProbes", s.BreakerProbes, int64(1)},
		{"FailedQuerySpendTransactions", s.FailedQuerySpendTransactions, int64(3)},
		{"FailedQuerySpendPrice", s.FailedQuerySpendPrice, float64(3)},
	}, []string{
		"PREFIX_replayed_calls_total 1",
		"PREFIX_breaker_opens_total 1",
		"PREFIX_breaker_short_circuits_total 1",
		"PREFIX_breaker_probes_total 1",
		"PREFIX_failed_query_spend_transactions_total 3",
		"PREFIX_failed_query_spend_price_total 3",
	}, "payless", "market")
}

// TestDurabilityMetricsFamilies pins the families the durable store
// exports; renaming one breaks dashboards and the crash-smoke CI greps.
func TestDurabilityMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	fillDurabilityFamilies(m)
	s := m.Snapshot()
	checkFamilies(t, m, []familyValue{
		{"WALAppends", s.WALAppends, int64(2)},
		{"WALAppendBytes", s.WALAppendBytes, int64(150)},
		{"WALAppendMicros", s.WALAppendMicros, int64(50)},
		{"WALSyncedAppends", s.WALSyncedAppends, int64(1)},
		{"WALReplays", s.WALReplays, int64(1)},
		{"WALReplayedRecords", s.WALReplayedRecords, int64(7)},
		{"WALSkippedRecords", s.WALSkippedRecords, int64(2)},
		{"WALTornTails", s.WALTornTails, int64(1)},
		{"Checkpoints", s.Checkpoints, int64(1)},
		{"CheckpointFailures", s.CheckpointFailures, int64(1)},
		{"CheckpointBytes", s.CheckpointBytes, int64(1000)},
		{"CheckpointMicros", s.CheckpointMicros, int64(300)},
		{"AuditDropped", s.AuditDropped, int64(1)},
	}, []string{
		"PREFIX_wal_appends_total 2",
		"PREFIX_wal_append_bytes_total 150",
		"PREFIX_wal_append_micros_total 50",
		"PREFIX_wal_synced_appends_total 1",
		"PREFIX_wal_replays_total 1",
		"PREFIX_wal_replayed_records_total 7",
		"PREFIX_wal_skipped_records_total 2",
		"PREFIX_wal_torn_tails_total 1",
		"PREFIX_checkpoints_total 1",
		"PREFIX_checkpoint_failures_total 1",
		"PREFIX_checkpoint_bytes_total 1000",
		"PREFIX_checkpoint_micros_total 300",
		"PREFIX_audit_dropped_total 1",
	}, "payless")
}

// TestFederationMetricsFamilies pins the families the federated caller
// exports: the federation-smoke CI job and dashboards grep these names.
// The federated caller takes a possibly-nil sink, so its handles must also
// be no-ops on a nil registry.
func TestFederationMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	fillFederationFamilies(m)
	s := m.Snapshot()
	checkFamilies(t, m, []familyValue{
		{"FederationCalls", s.FederationCalls, int64(2)},
		{"FederationFailovers", s.FederationFailovers, int64(1)},
		{"FederationHedges", s.FederationHedges, int64(1)},
		{"FederationHedgeWins", s.FederationHedgeWins, int64(1)},
		{"FederationExhausted", s.FederationExhausted, int64(1)},
	}, []string{
		"PREFIX_federation_calls_total 2",
		"PREFIX_federation_failovers_total 1",
		"PREFIX_federation_hedged_calls_total 1",
		"PREFIX_federation_hedge_wins_total 1",
		"PREFIX_federation_exhausted_total 1",
	}, "payless")

	var nm *Metrics
	fillFederationFamilies(nm)
	if s := nm.Snapshot(); s.FederationCalls != 0 {
		t.Errorf("nil metrics federation snapshot: %+v", s)
	}
}

// TestOverloadMetricsFamilies pins the overload gauges, including their
// gauge TYPE lines: dashboards scrape these names.
func TestOverloadMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	fillOverloadFamilies(m)
	s := m.Snapshot()
	checkFamilies(t, m, []familyValue{
		{"InflightQueries", s.InflightQueries, int64(1)},
		{"QueueDepth", s.QueueDepth, int64(2)},
	}, []string{
		"# TYPE PREFIX_inflight_queries gauge",
		"PREFIX_inflight_queries 1",
		"# TYPE PREFIX_queue_depth gauge",
		"PREFIX_queue_depth 2",
	}, "payless")

	var nm *Metrics
	fillOverloadFamilies(nm)
	if s := nm.Snapshot(); s.InflightQueries != 0 || s.QueueDepth != 0 {
		t.Errorf("nil metrics gauge snapshot: %+v", s)
	}
}

// TestExpositionGolden pins the whole exposition — every family's name,
// HELP, TYPE and value under both deployed prefixes ("payless" on the buyer
// client, "market" on the seller handler) — byte for byte. Dashboards,
// alerts and the CI smoke jobs scrape these names, so any rename, retype or
// reorder is a breaking change and must show up here.
func TestExpositionGolden(t *testing.T) {
	m := NewMetrics()
	fillEveryFamily(m)

	s := m.Snapshot()
	v := reflect.ValueOf(s)
	for _, f := range families {
		if v.Field(f.field).IsZero() {
			t.Errorf("family %s (%s) left zero: the golden does not cover it", f.name, f.goName)
		}
	}

	var b strings.Builder
	m.WritePrometheus(&b, "payless")
	m.WritePrometheus(&b, "market")
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("exposition differs from testdata/exposition.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// TestNilMetricsIsNoOp covers every entry point: components take a
// possibly-nil sink and must never have to check it.
func TestNilMetricsIsNoOp(t *testing.T) {
	var m *Metrics
	m.Add(Queries, 1)
	m.AddAll(WALAppends.By(1), InflightQueries.By(1))
	m.Observe(CallLatency, time.Millisecond)
	m.ObserveQuery(time.Millisecond, 0, 1, 1, 1, 1)
	m.AddSpend(1, 1, 1, 1, true)
	m.ObserveCall(time.Millisecond, 1)
	if s := m.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Errorf("nil metrics snapshot: %+v", s)
	}
	var b strings.Builder
	m.WritePrometheus(&b, "payless")
	rec := httptest.NewRecorder()
	m.Handler("payless").ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Body.String() != b.String() || !strings.Contains(b.String(), "payless_queries_total 0\n") {
		t.Errorf("nil metrics exposition:\n%s", rec.Body)
	}
}

// TestMetricsConcurrentExact hammers every write path from several
// goroutines while others read, then checks every total exactly. Each
// observation site is one critical section, so every snapshot must also be
// internally consistent: a query's calls land with the query, and a gauge
// moved up and down in one AddAll is never caught half-way.
func TestMetricsConcurrentExact(t *testing.T) {
	const writers, iters = 8, 2000
	m := NewMetrics()
	done := make(chan struct{})
	var readers sync.WaitGroup
	var readErr error
	var errOnce sync.Once
	fail := func(format string, args ...any) { errOnce.Do(func() { readErr = fmt.Errorf(format, args...) }) }
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last int64
			for {
				select {
				case <-done:
					return
				default:
				}
				s := m.Snapshot()
				if s.Calls != 2*s.Queries+s.FailedQuerySpendTransactions {
					fail("torn snapshot: calls %d, queries %d, failed spend %d", s.Calls, s.Queries, s.FailedQuerySpendTransactions)
				}
				if s.InflightQueries != 0 {
					fail("gauge caught mid-AddAll: %d", s.InflightQueries)
				}
				if s.Queries < last {
					fail("queries went backwards: %d after %d", s.Queries, last)
				}
				last = s.Queries
				m.WritePrometheus(io.Discard, "payless")
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Add(QueryErrors, 1)
				m.AddAll(StoreLookups.By(1), StoreLookupMicros.By(3), InflightQueries.By(1), InflightQueries.By(-1))
				m.ObserveQuery(time.Millisecond, time.Microsecond, 2, 5, 1, 0.5)
				m.Observe(CallLatency, 2*time.Millisecond)
				m.AddSpend(1, 1, 1, 0.25, true)
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}

	const n = writers * iters
	s := m.Snapshot()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"QueryErrors", s.QueryErrors, int64(n)},
		{"StoreLookups", s.StoreLookups, int64(n)},
		{"StoreLookupMicros", s.StoreLookupMicros, int64(3 * n)},
		{"InflightQueries", s.InflightQueries, int64(0)},
		{"Queries", s.Queries, int64(n)},
		{"Calls", s.Calls, int64(3 * n)},
		{"Records", s.Records, int64(6 * n)},
		{"Transactions", s.Transactions, int64(2 * n)},
		{"Price", s.Price, 0.75 * n},
		{"FailedQuerySpendTransactions", s.FailedQuerySpendTransactions, int64(n)},
		{"FailedQuerySpendPrice", s.FailedQuerySpendPrice, 0.25 * n},
		{"QueryLatency.Count", s.QueryLatency.Count, int64(n)},
		{"OptimizeLatency.Count", s.OptimizeLatency.Count, int64(n)},
		{"CallLatency.Count", s.CallLatency.Count, int64(n)},
		{"CallLatency.Sum", s.CallLatency.Sum, time.Duration(n) * 2 * time.Millisecond},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// BenchmarkMetricsParallel is one busy query's worth of observations per
// op — ObserveQuery, a scheduler hit and a four-family store lookup — from
// every P at once. Each site takes the registry mutex once.
func BenchmarkMetricsParallel(b *testing.B) {
	m := NewMetrics()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.ObserveQuery(3*time.Millisecond, 200*time.Microsecond, 2, 150, 3, 3)
			m.Add(SchedSingleflightHits, 1)
			m.AddAll(StoreLookups.By(1), StoreLookupMicros.By(12), StorePrunedBoxes.By(4), StoreFastPathHits.By(Flag(true)))
		}
	})
}
