package bench

import (
	"path/filepath"
	"testing"

	payless "payless"

	"payless/internal/workload"
)

// TestFigDurability smoke-runs the durability sweep at a reduced scale: the
// bill must match across fsync policies and every policy must recover its
// full record log after a clean close.
func TestFigDurability(t *testing.T) {
	cfg := workload.DefaultWHWConfig()
	cfg.Countries = 4
	cfg.StationsPerCountry = 5
	cfg.CitiesPerCountry = 2
	cfg.Days = 10
	cfg.Zips = 20
	fig, err := FigDurability(DurabilityParams{Cfg: cfg, Queries: 2, Seed: 7, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 || len(fig.Series[0].X) != 3 {
		t.Fatalf("series shape: %+v", fig.Series)
	}
	if fig.XLabel != "policy" {
		t.Errorf("xlabel: %q", fig.XLabel)
	}
	recovered := fig.Series[2]
	for i, y := range recovered.Y {
		if y == 0 {
			t.Errorf("policy %d recovered no records", recovered.X[i])
		}
	}
	if out := fig.Render(); len(out) == 0 {
		t.Error("empty render")
	}
}

// TestNoDurabilityOverhead is the regression guard for the Record-path
// refactor: a durable client whose WAL never fsyncs must run the fan-out
// workload within 2% of a memory-only client — the write-ahead logging hot
// path (and, a fortiori, the nil-WAL branch every default client takes)
// costs nothing next to the market round-trips. The comparison is
// guardOverhead's: alternating pairs, faster-half means, up to 3 rounds.
func TestNoDurabilityOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	env, err := newConcurrencyEnv(smallConcurrencyParams())
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	dirs := t.TempDir()
	base, durable := guardOverhead(t, env, "durable store", func(key string) []payless.Option {
		return []payless.Option{
			payless.WithDurableStore(filepath.Join(dirs, key)),
			payless.WithStoreSync(payless.StoreSyncOff, 0),
		}
	})
	t.Logf("durable-store overhead %.2f%% (base %v, durable %v)", 100*float64(durable-base)/float64(base), base, durable)
}
