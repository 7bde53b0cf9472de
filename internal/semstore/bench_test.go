package semstore

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
)

// buildTiledStore records n disjoint, non-adjacent 2x2 tiles (gaps on both
// axes defeat compaction), each with one materialised row, so live entry
// and row counts stay exactly n — the worst case for a full-scan lookup.
func buildTiledStore(tb testing.TB, n int) (*Store, *catalog.Table) {
	side := 1
	for side*side < n {
		side++
	}
	meta := gridMeta(int64(4*side + 8))
	s := New(storage.NewDB())
	at := time.Unix(1700000000, 0)
	for i := 0; i < n; i++ {
		x := int64(i%side) * 4
		y := int64(i/side) * 4
		b := box2(x, x+2, y, y+2)
		if _, err := s.Record(meta, b, []value.Row{gridRow(x, y)}, at); err != nil {
			tb.Fatal(err)
		}
	}
	if got := s.EntryCount("Grid"); got != n {
		tb.Fatalf("tiled store compacted: %d entries, want %d", got, n)
	}
	return s, meta
}

// tileQuery is a small probe box overlapping a handful of tiles near the
// grid's centre.
func tileQuery(n int) region.Box {
	side := 1
	for side*side < n {
		side++
	}
	c := int64(side/2) * 4
	return box2(c, c+6, c, c+6)
}

// naiveRemainder is the pre-index lookup: collect every stored box, then
// subtract — the code path Remainder used before the coverage index.
func naiveRemainder(s *Store, table string, q region.Box) []region.Box {
	return region.Subtract(q, s.Boxes(table, time.Time{}))
}

func BenchmarkSemstoreRemainder(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		s, _ := buildTiledStore(b, n)
		q := tileQuery(n)
		b.Run(fmt.Sprintf("indexed/entries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rem := s.Remainder("Grid", q, time.Time{}); len(rem) == 0 {
					b.Fatal("probe unexpectedly covered")
				}
			}
		})
		b.Run(fmt.Sprintf("naive/entries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rem := naiveRemainder(s, "Grid", q); len(rem) == 0 {
					b.Fatal("probe unexpectedly covered")
				}
			}
		})
	}
}

func BenchmarkSemstoreRowsIn(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		s, meta := buildTiledStore(b, n)
		q := tileQuery(n)
		b.Run(fmt.Sprintf("indexed/rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rel, err := s.RowsIn(meta, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(rel.Rows) == 0 {
					b.Fatal("probe found no rows")
				}
			}
		})
		// The naive path is the pre-index linear scan over every
		// materialised coordinate.
		ts := s.table("Grid")
		b.Run(fmt.Sprintf("naive/rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				count := 0
				d := q.D()
			scan:
				for _, cs := range ts.coords {
					if len(cs) != d {
						continue
					}
					for k := 0; k < d; k++ {
						if !q.Dims[k].ContainsCoord(cs[k]) {
							continue scan
						}
					}
					count++
				}
				if count == 0 {
					b.Fatal("probe found no rows")
				}
			}
		})
	}
}

// seedRows publishes a Grid table already holding n distinct rows,
// recorded as one batch, on a side×side grid.
func seedRows(b *testing.B, n int) (*Store, *catalog.Table, int64) {
	side := int64(1)
	for side*side < int64(n) {
		side++
	}
	meta := gridMeta(side)
	s := New(storage.NewDB())
	rng := rand.New(rand.NewSource(1))
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(rng.Int63n(side)), value.NewInt(rng.Int63n(side)), value.NewFloat(float64(i))}
	}
	if _, err := s.Record(meta, box2(0, side, 0, side), rows, time.Unix(1700000000, 0)); err != nil {
		b.Fatal(err)
	}
	return s, meta, side
}

// BenchmarkSemstoreRecord records batches of 100 new rows into a table
// already holding 1k, 10k or 100k rows. Once the table has grown by a
// quarter, the benchmark restores the seeded state with its timer stopped,
// so the figure is the amortised cost of a Record at n to 1.25n rows, tail
// folds included, and does not drift with b.N.
func BenchmarkSemstoreRecord(b *testing.B) {
	const batchRows = 100
	at := time.Unix(1700000000, 0)
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			s, meta, side := seedRows(b, n)
			base := s.snap.Load()
			seen := s.table("Grid").seen
			var added []string // row keys recorded since the last restore
			rng := rand.New(rand.NewSource(2))
			batch := make([]value.Row, batchRows)
			box := box2(0, side, 0, side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if len(added) >= n/4 {
					s.snap.Store(base)
					for _, k := range added {
						delete(seen, k)
					}
					added = added[:0]
				}
				for j := range batch {
					// A fractional V keeps every batch row new.
					v := float64(i*batchRows+j) + 0.5
					batch[j] = value.Row{value.NewInt(rng.Int63n(side)), value.NewInt(rng.Int63n(side)), value.NewFloat(v)}
					added = append(added, batch[j].Key())
				}
				b.StartTimer()
				if _, err := s.Record(meta, box, batch, at); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestIndexedRemainderSpeedup is the CI gate on the store-scaling work: at
// 10k recorded calls the indexed Remainder must beat the naive
// collect-and-subtract baseline by at least 5x. The real gap is orders of
// magnitude, so 5x leaves plenty of headroom against noisy CI machines.
func TestIndexedRemainderSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	const n = 10000
	s, _ := buildTiledStore(t, n)
	q := tileQuery(n)
	indexed := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Remainder("Grid", q, time.Time{})
		}
	})
	naive := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveRemainder(s, "Grid", q)
		}
	})
	idxNs := float64(indexed.NsPerOp())
	naiveNs := float64(naive.NsPerOp())
	t.Logf("indexed %.0f ns/op, naive %.0f ns/op (%.1fx)", idxNs, naiveNs, naiveNs/idxNs)
	if naiveNs < 5*idxNs {
		t.Fatalf("indexed Remainder only %.1fx faster than naive at %d entries (indexed %.0f ns, naive %.0f ns); want >= 5x",
			naiveNs/idxNs, n, idxNs, naiveNs)
	}
}
