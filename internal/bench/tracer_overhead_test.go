package bench

import (
	"fmt"
	"slices"
	"testing"
	"time"

	payless "payless"
)

// noopTracer opts every query out of tracing: Begin returns nil, so the
// engine runs the same nil-trace path as a client with no Tracer at all.
type noopTracer struct{}

func (noopTracer) Begin(string) *payless.Trace { return nil }
func (noopTracer) Finish(*payless.Trace)       {}

// replay runs one full pass over the workload on a fresh client.
func replay(t testing.TB, env *concurrencyEnv, key string, opts ...payless.Option) time.Duration {
	t.Helper()
	var total time.Duration
	for _, d := range replayQueries(t, env, key, opts...) {
		total += d
	}
	return total
}

// replayQueries is replay with the time of each query reported apart.
func replayQueries(t testing.TB, env *concurrencyEnv, key string, opts ...payless.Option) []time.Duration {
	t.Helper()
	client, err := env.client(key, 8, opts...)
	if err != nil {
		t.Fatal(err)
	}
	took := make([]time.Duration, len(env.sql))
	for i, sql := range env.sql {
		start := time.Now()
		if _, err := client.Query(sql); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(start)
	}
	return took
}

// TestNoopTracerOverhead is the benchmark-smoke guard: a client whose
// Tracer declines every query must run the fan-out workload within 2% of
// an untraced client. Each side's time is the sum, over the workload's
// queries, of that query's mean time across the faster half of all replays
// so far: dropping the slow half ignores the replays that scheduler noise
// slows down, and averaging the rest is steadier than the minimum, which a
// single lucky replay sets. The two clients' replays alternate, each pair
// in the order opposite to the last one, so drift in the machine's load
// (or the warm-up of the market server) falls on both sides alike instead
// of on whichever side happens to be measured second. Before declaring a
// regression the comparison takes N more replays a side, keeping the ones
// so far.
func TestNoopTracerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	p := smallConcurrencyParams()
	env, err := newConcurrencyEnv(p)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	const runs = 30
	var took [2][][]time.Duration // [untraced, traced][query][replay]
	for side := range took {
		took[side] = make([][]time.Duration, len(env.sql))
	}
	fasterHalfMean := func(ds []time.Duration) time.Duration {
		s := slices.Clone(ds)
		slices.Sort(s)
		s = s[:max(1, len(s)/2)]
		var sum time.Duration
		for _, d := range s {
			sum += d
		}
		return sum / time.Duration(len(s))
	}
	measure := func(round int) (base, traced time.Duration) {
		for i := 0; i < runs; i++ {
			for j := 0; j < 2; j++ {
				side := (i + j) % 2
				var opts []payless.Option
				if side == 1 {
					opts = append(opts, payless.WithTracer(noopTracer{}))
				}
				for q, d := range replayQueries(t, env, fmt.Sprintf("ovh-%d-%d-%d", side, round, i), opts...) {
					took[side][q] = append(took[side][q], d)
				}
			}
		}
		for q := range env.sql {
			base += fasterHalfMean(took[0][q])
			traced += fasterHalfMean(took[1][q])
		}
		return base, traced
	}
	for round := 0; ; round++ {
		base, traced := measure(round)
		overhead := float64(traced-base) / float64(base)
		if overhead < 0.02 {
			t.Logf("noop-tracer overhead %.2f%% (base %v, traced %v)", 100*overhead, base, traced)
			return
		}
		if round == 2 {
			t.Fatalf("noop tracer adds %.1f%% overhead (base %v, traced %v), want <2%%",
				100*overhead, base, traced)
		}
	}
}

// BenchmarkFetchConcurrencyTraced is BenchmarkFetchConcurrency with a
// CollectTracer attached — compare the two to quantify the cost of full
// tracing:
//
//	go test ./internal/bench/ -bench FetchConcurrency -benchtime 10x
func BenchmarkFetchConcurrencyTraced(b *testing.B) {
	p := DefaultConcurrencyParams()
	env, err := newConcurrencyEnv(p)
	if err != nil {
		b.Fatal(err)
	}
	defer env.close()
	for _, conc := range []int{1, 8} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			client, err := env.client(fmt.Sprintf("tbench-%d-%d", conc, b.N), conc,
				payless.WithTracer(&payless.CollectTracer{}))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Query(env.sql[i%len(env.sql)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
