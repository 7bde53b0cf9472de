package semstore

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/diskfault"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
)

// refRecord is the reference Record for the batched row index: it installs
// a call exactly as applyRecord does, except that the index is one sorted
// run per dimension and every new row is inserted into it one at a time
// (binary search, then shift), on a deep copy of the published run. That
// is the per-row path the batch merge replaced.
func refRecord(s *Store, meta *catalog.Table, b region.Box, rows []value.Row, at time.Time) error {
	coords, err := validateRows(meta, b, rows)
	if err != nil {
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	snap := s.snap.Load()
	ts := cloneTableFor(snap, meta)
	for d := range ts.rowIdx {
		ts.rowIdx[d] = rowDim{base: copyRun(ts.rowIdx[d].base)}
	}
	ts.epoch++
	for i, row := range rows {
		k := row.Key()
		if _, dup := ts.seen[k]; dup {
			continue
		}
		ts.seen[k] = struct{}{}
		id := len(ts.rows)
		ts.rows = append(ts.rows, row.Clone())
		ts.coords = append(ts.coords, coords[i])
		cs := coords[i]
		if len(cs) != len(ts.rowIdx) {
			continue
		}
		for d := range ts.rowIdx {
			ri := &ts.rowIdx[d].base
			pos := sort.Search(len(ri.coords), func(j int) bool { return ri.coords[j] > cs[d] })
			ri.coords = slices.Insert(ri.coords, pos, cs[d])
			ri.ids = slices.Insert(ri.ids, pos, id)
		}
	}
	if !b.Empty() {
		ts.insertEntry(b.Clone(), at, int64(len(rows)))
		ts.maybeRebuild()
	}
	s.publish(snap, ts)
	s.recorded.Add(1)
	return nil
}

func copyRun(r rowRun) rowRun {
	return rowRun{coords: slices.Clone(r.coords), ids: slices.Clone(r.ids)}
}

// copyRowIdx deep-copies a row index, for comparing against later.
func copyRowIdx(idx []rowDim) []rowDim {
	out := make([]rowDim, len(idx))
	for d, ri := range idx {
		out[d] = rowDim{base: copyRun(ri.base), tail: copyRun(ri.tail)}
	}
	return out
}

func runEqual(a, b rowRun) bool {
	return slices.Equal(a.coords, b.coords) && slices.Equal(a.ids, b.ids)
}

// rowIdxEqual compares two row indexes run by run.
func rowIdxEqual(a, b []rowDim) bool {
	return slices.EqualFunc(a, b, func(x, y rowDim) bool {
		return runEqual(x.base, y.base) && runEqual(x.tail, y.tail)
	})
}

// flatRowIdx is the single sorted run per dimension that a row index's
// base and tail together describe.
func flatRowIdx(idx []rowDim) []rowDim {
	out := make([]rowDim, len(idx))
	for d, ri := range idx {
		out[d] = rowDim{base: mergeRuns(ri.base, ri.tail)}
	}
	return out
}

// driftMeta is gridMeta with Y demoted to an output column: rows recorded
// through it carry one coordinate where the table's index has two, so they
// are stored but never indexed.
func driftMeta(max int64) *catalog.Table {
	m := gridMeta(max)
	m.Attrs[1].Binding = catalog.Output
	return m
}

// TestBatchedRowIndexMatchesPerRowInsert records seeded random batches into
// two stores, one through Record's batch merge and one through the per-row
// reference, and asserts identical row indexes (base and tail runs merged),
// RowsIn (row order included), CountIn and StoredRowCount after every call.
// The tail must stay within its bound, and must both fill and fold. Batches
// repeat rows within and across calls, some are empty, and some drift in
// dimensionality. A snapshot taken mid-run must keep its own index through
// every later Record, and Save→Load and WAL replay must keep the row count.
func TestBatchedRowIndexMatchesPerRowInsert(t *testing.T) {
	const (
		trials  = 12
		records = 50
		span    = 40
		probes  = 6
	)
	meta := gridMeta(span)
	drift := driftMeta(span)
	lookup := func(table string) (*catalog.Table, bool) { return meta, table == meta.Name }
	rng := rand.New(rand.NewSource(7))
	base := time.Unix(1700000000, 0)
	randBox := func() region.Box {
		x, y := rng.Int63n(span), rng.Int63n(span)
		return box2(x, min64(x+1+rng.Int63n(10), span+1), y, min64(y+1+rng.Int63n(10), span+1))
	}

	var tails, folds, prevTail int
	for trial := 0; trial < trials; trial++ {
		fsys := diskfault.New()
		got := New(storage.NewDB())
		if _, err := got.EnableDurability("/store", DurableOptions{Lookup: lookup, FS: fsys, CheckpointEvery: -1}); err != nil {
			t.Fatal(err)
		}
		want := New(storage.NewDB())
		prevTail = 0

		var (
			held     *tableStore // a reader's snapshot, taken mid-run
			heldIdx  []rowDim
			heldRows []value.Row
			heldQ    = box2(0, span+1, 0, span+1)
		)
		for rec := 0; rec < records; rec++ {
			b := randBox()
			m := meta
			if rng.Intn(8) == 0 {
				m = drift
				b = region.NewBox(b.Dims[0])
			}
			// One batch in twelve is empty (coverage only). The small
			// coordinate range makes duplicates within a batch and across
			// batches common.
			var rows []value.Row
			for i, n := 0, rng.Intn(12); i < n; i++ {
				rows = append(rows, gridRow(rng.Int63n(span/2), rng.Int63n(span/2)))
			}
			at := base.Add(time.Duration(rec) * time.Minute)
			if _, err := got.Record(m, b, rows, at); err != nil {
				t.Fatalf("trial %d rec %d: %v", trial, rec, err)
			}
			if err := refRecord(want, m, b, rows, at); err != nil {
				t.Fatalf("trial %d rec %d (reference): %v", trial, rec, err)
			}

			gts, wts := got.table("Grid"), want.table("Grid")
			if !rowIdxEqual(flatRowIdx(gts.rowIdx), wts.rowIdx) {
				t.Fatalf("trial %d rec %d: row index differs:\nbatched   %v\nreference %v", trial, rec, gts.rowIdx, wts.rowIdx)
			}
			for _, ri := range gts.rowIdx {
				if len(ri.tail.ids)*tailFraction > len(ri.base.ids) {
					t.Fatalf("trial %d rec %d: tail of %d rows over base of %d", trial, rec, len(ri.tail.ids), len(ri.base.ids))
				}
			}
			// Every dimension indexes the same rows, so dimension 0's tail
			// tells when the tails fill and fold.
			switch tail := len(gts.rowIdx[0].tail.ids); {
			case tail > 0:
				tails++
			case prevTail > 0:
				folds++
			}
			prevTail = len(gts.rowIdx[0].tail.ids)
			if g, w := got.StoredRowCount("Grid"), want.StoredRowCount("Grid"); g != w {
				t.Fatalf("trial %d rec %d: StoredRowCount %d, reference %d", trial, rec, g, w)
			}
			for p := 0; p < probes; p++ {
				q := randBox()
				if p == 0 {
					q = region.NewBox(q.Dims[0]) // unindexable: full-scan path
				}
				gr, _ := got.RowsIn(meta, q)
				wr, _ := want.RowsIn(meta, q)
				if !slices.EqualFunc(gr.Rows, wr.Rows, func(a, b value.Row) bool { return a.Key() == b.Key() }) {
					t.Fatalf("trial %d rec %d: RowsIn(%v) = %v, reference %v", trial, rec, q, gr.Rows, wr.Rows)
				}
				gn, _ := got.CountIn(meta, q)
				wn, _ := want.CountIn(meta, q)
				if gn != wn {
					t.Fatalf("trial %d rec %d: CountIn(%v) = %d, reference %d", trial, rec, q, gn, wn)
				}
			}

			if rec == records/3 {
				held = gts
				heldIdx = copyRowIdx(gts.rowIdx)
				ids, _ := gts.rowCandidates(heldQ)
				for _, id := range ids {
					heldRows = append(heldRows, gts.rows[id])
				}
			}
		}

		// The held snapshot still sees its own index and rows, untouched by
		// every Record after it.
		if !rowIdxEqual(held.rowIdx, heldIdx) {
			t.Fatalf("trial %d: a later Record mutated a published row index", trial)
		}
		ids, _ := held.rowCandidates(heldQ)
		if len(ids) != len(heldRows) {
			t.Fatalf("trial %d: held snapshot sees %d rows, had %d", trial, len(ids), len(heldRows))
		}
		for i, id := range ids {
			if held.rows[id].Key() != heldRows[i].Key() {
				t.Fatalf("trial %d: held snapshot row %d changed", trial, i)
			}
		}

		n := got.StoredRowCount("Grid")
		var buf bytes.Buffer
		if err := got.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded := New(storage.NewDB())
		if err := loaded.Load(&buf, lookup); err != nil {
			t.Fatal(err)
		}
		if g := loaded.StoredRowCount("Grid"); g != n {
			t.Fatalf("trial %d: StoredRowCount after Save→Load %d, want %d", trial, g, n)
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
		replayed := New(storage.NewDB())
		info, err := replayed.EnableDurability("/store", DurableOptions{Lookup: lookup, FS: fsys, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if info.Replayed != records {
			t.Fatalf("trial %d: replayed %d records, want %d", trial, info.Replayed, records)
		}
		if g := replayed.StoredRowCount("Grid"); g != n {
			t.Fatalf("trial %d: StoredRowCount after WAL replay %d, want %d", trial, g, n)
		}
		replayed.Close()
	}
	if tails == 0 || folds == 0 {
		t.Fatalf("tail never exercised: %d non-empty tails, %d folds", tails, folds)
	}
}
