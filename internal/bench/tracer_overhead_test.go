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

// replayQueries runs one full pass over the workload on a fresh client and
// returns the time each query took.
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
// an untraced client.
func TestNoopTracerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	env, err := newConcurrencyEnv(smallConcurrencyParams())
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	base, traced := guardOverhead(t, env, "noop tracer", func(string) []payless.Option {
		return []payless.Option{payless.WithTracer(noopTracer{})}
	})
	t.Logf("noop-tracer overhead %.2f%% (base %v, traced %v)", 100*float64(traced-base)/float64(base), base, traced)
}

// guardOverhead fails t unless clients opened with opts(key) run env's
// workload within 2% of plain clients, and returns both sides' times. Each
// side's time is the sum, over the workload's queries, of that query's mean
// time across the faster half of all replays so far: dropping the slow half
// ignores the replays that scheduler noise slows down, and averaging the
// rest is steadier than the minimum, which a single lucky replay sets. The
// two sides' replays alternate, each pair in the order opposite to the last
// one, so drift in the machine's load (or the warm-up of the market
// server) falls on both sides alike instead of on whichever side happens
// to be measured second. Each round adds 30 replays a side, keeping the
// ones so far; the third round over the gate fails.
func guardOverhead(t *testing.T, env *concurrencyEnv, what string, opts func(key string) []payless.Option) (base, other time.Duration) {
	t.Helper()
	const runs = 30
	var took [2][][]time.Duration // [plain, with opts][query][replay]
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
	for round := 0; ; round++ {
		for i := 0; i < runs; i++ {
			for j := 0; j < 2; j++ {
				side := (i + j) % 2
				key := fmt.Sprintf("ovh-%d-%d-%d", side, round, i)
				var o []payless.Option
				if side == 1 {
					o = opts(key)
				}
				for q, d := range replayQueries(t, env, key, o...) {
					took[side][q] = append(took[side][q], d)
				}
			}
		}
		base, other = 0, 0
		for q := range env.sql {
			base += fasterHalfMean(took[0][q])
			other += fasterHalfMean(took[1][q])
		}
		overhead := float64(other-base) / float64(base)
		if overhead < 0.02 {
			return base, other
		}
		if round == 2 {
			t.Fatalf("%s adds %.1f%% overhead (base %v, with it %v), want <2%%", what, 100*overhead, base, other)
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
