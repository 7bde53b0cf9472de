// Package storage implements the buyer-side local DBMS that PayLess offloads
// query processing to (paper §3, step 6–8). It is a small in-memory engine:
// tables with row-level deduplication (the semantic store never evicts and
// never stores a tuple twice), predicate scans, hash equi-joins, cartesian
// products, grouped aggregation and ordering — everything the paper's query
// class needs once the market data has been materialised locally.
package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"payless/internal/value"
)

// DB is a named collection of stored tables. It is safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Create adds an empty table with the given schema. Creating an existing
// table is an error.
func (db *DB) Create(name string, schema value.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("table %s already exists", name)
	}
	t := &Table{name: name, schema: schema.Clone(), index: make(map[string]struct{})}
	db.tables[key] = t
	return t, nil
}

// Ensure returns the named table, creating it if needed. An existing table
// must have the same number of columns.
func (db *DB) Ensure(name string, schema value.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if t, ok := db.tables[key]; ok {
		if len(t.schema) != len(schema) {
			return nil, fmt.Errorf("table %s exists with %d columns, want %d", name, len(t.schema), len(schema))
		}
		return t, nil
	}
	t := &Table{name: name, schema: schema.Clone(), index: make(map[string]struct{})}
	db.tables[key] = t
	return t, nil
}

// Lookup returns the named table.
func (db *DB) Lookup(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Drop removes the named table.
func (db *DB) Drop(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.tables, strings.ToLower(name))
}

// Table is a stored relation with whole-row deduplication.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema value.Schema
	rows   []value.Row
	index  map[string]struct{}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() value.Schema { return t.schema }

// Len returns the number of stored rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends rows, silently skipping exact duplicates, and returns the
// number of rows actually added. Rows of the wrong width are rejected.
func (t *Table) Insert(rows []value.Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	added := 0
	for _, r := range rows {
		if len(r) != len(t.schema) {
			return added, fmt.Errorf("table %s: row width %d, want %d", t.name, len(r), len(t.schema))
		}
		k := r.Key()
		if _, dup := t.index[k]; dup {
			continue
		}
		t.index[k] = struct{}{}
		t.rows = append(t.rows, r.Clone())
		added++
	}
	return added, nil
}

// Relation snapshots the table contents as an immutable relation.
func (t *Table) Relation() Relation {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows := make([]value.Row, len(t.rows))
	copy(rows, t.rows)
	return Relation{Schema: t.schema.Clone(), Rows: rows}
}

// Relation is an immutable materialised result: a schema plus rows.
type Relation struct {
	Schema value.Schema
	Rows   []value.Row
}

// Len returns the relation cardinality.
func (r Relation) Len() int { return len(r.Rows) }

// Select returns the rows satisfying pred.
func (r Relation) Select(pred func(value.Row) bool) Relation {
	out := Relation{Schema: r.Schema}
	for _, row := range r.Rows {
		if pred(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Project returns the relation restricted to the given column indexes.
func (r Relation) Project(idx []int) Relation {
	sch := make(value.Schema, len(idx))
	for i, j := range idx {
		sch[i] = r.Schema[j]
	}
	out := Relation{Schema: sch, Rows: make([]value.Row, 0, len(r.Rows))}
	for _, row := range r.Rows {
		out.Rows = append(out.Rows, value.Project(row, idx))
	}
	return out
}

// Distinct removes duplicate rows, preserving first-seen order.
func (r Relation) Distinct() Relation {
	seen := make(map[string]struct{}, len(r.Rows))
	out := Relation{Schema: r.Schema}
	for _, row := range r.Rows {
		k := row.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// DistinctValues returns the distinct values of one column in first-seen
// order — used to collect bind-join binding values.
func (r Relation) DistinctValues(col int) []value.Value {
	seen := make(map[keyVal]struct{})
	var out []value.Value
	for _, row := range r.Rows {
		v := row[col]
		k := distinctVal(v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, v)
	}
	return out
}

// HashJoin equi-joins r and s on the given column pairs (r.Rows x s.Rows
// where r[lc[i]] == s[rc[i]] for all i). The output schema is the
// concatenation of both schemas. Rows come out in probe order, and each
// probe row's matches in build order; joined rows share one backing slab,
// each capped at its own width. Without key pairs it is the cartesian
// product, r-major.
func HashJoin(r, s Relation, lc, rc []int) Relation {
	out := Relation{Schema: append(r.Schema.Clone(), s.Schema.Clone()...)}
	if len(lc) != len(rc) {
		lc, rc = nil, nil
	}
	// Build on the smaller side.
	build, probe := s, r
	bc, pc := rc, lc
	swapped := false
	if len(lc) > 0 && len(r.Rows) < len(s.Rows) {
		build, probe = r, s
		bc, pc = lc, rc
		swapped = true
	}
	// Adding rows back to front walks every chain in build order: entry e
	// is row last-e.
	last := int32(len(build.Rows) - 1)
	ht := keyChains{head: make(map[uint64]int32, len(build.Rows)), next: make([]int32, 0, len(build.Rows))}
	for i := last; i >= 0; i-- {
		ht.add(keyHash(build.Rows[i], bc))
	}
	// pairs holds the (probe, build) row indexes of every match.
	var pairs []int32
	width := 0
	for p, prow := range probe.Rows {
		for e := ht.first(keyHash(prow, pc)); e >= 0; e = ht.next[e] {
			if b := last - e; keysEqual(prow, pc, build.Rows[b], bc) {
				pairs = append(pairs, int32(p), b)
				width += len(prow) + len(build.Rows[b])
			}
		}
	}
	if len(pairs) == 0 {
		return out
	}
	slab := make([]value.Value, width)
	out.Rows = make([]value.Row, len(pairs)/2)
	for k := range out.Rows {
		first, second := probe.Rows[pairs[2*k]], build.Rows[pairs[2*k+1]]
		if swapped {
			// build side is r, probe side is s.
			first, second = second, first
		}
		w := len(first) + len(second)
		row := slab[:w:w]
		slab = slab[w:]
		copy(row[copy(row, first):], second)
		out.Rows[k] = row
	}
	return out
}

// Cross returns the cartesian product of r and s, r-major.
func Cross(r, s Relation) Relation { return HashJoin(r, s, nil, nil) }

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// Supported aggregates.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
)

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return "?"
	}
}

// AggSpec names one aggregate to compute. Col is the input column index;
// -1 means COUNT(*).
type AggSpec struct {
	Func AggFunc
	Col  int
	As   string
}

// aggState accumulates one aggregate of one group. count is the number of
// rows (COUNT(*)) or non-null values seen; min and max index the rows
// holding the extreme values so far, valid once count > 0.
type aggState struct {
	count    int64
	sum      float64
	min, max int32
}

// Aggregate groups r by the given columns and computes the aggregates.
// The output schema is the group-by columns followed by one column per
// aggregate. With no group-by columns a single global row is produced
// (even over an empty input, for COUNT to report 0).
func Aggregate(r Relation, groupBy []int, aggs []AggSpec) Relation {
	sch := make(value.Schema, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		sch = append(sch, r.Schema[g])
	}
	for _, a := range aggs {
		name := a.As
		if name == "" {
			if a.Col >= 0 {
				name = fmt.Sprintf("%s(%s)", a.Func, r.Schema[a.Col].Name)
			} else {
				name = fmt.Sprintf("%s(*)", a.Func)
			}
		}
		typ := value.Float
		if a.Func == Count {
			typ = value.Int
		} else if a.Col >= 0 && (a.Func == Min || a.Func == Max) {
			typ = r.Schema[a.Col].Type
		}
		sch = append(sch, value.Column{Name: name, Type: typ})
	}

	// Groups are numbered in first-seen order; firsts[g] is the row that
	// opened group g (-1 for the global group of an empty input) and
	// states[g*len(aggs):] its aggregates.
	ht := keyChains{head: make(map[uint64]int32)}
	var firsts []int32
	var states []aggState
	for ri, row := range r.Rows {
		h := keyHash(row, groupBy)
		g := ht.first(h)
		for g >= 0 && !keysEqual(row, groupBy, r.Rows[firsts[g]], groupBy) {
			g = ht.next[g]
		}
		if g < 0 {
			g = ht.add(h)
			firsts = append(firsts, int32(ri))
			if cap(states)-len(states) < len(aggs) {
				states = slices.Grow(states, len(states)+len(aggs))
			}
			states = append(states, make([]aggState, len(aggs))...)
		}
		for i, a := range aggs {
			st := &states[int(g)*len(aggs)+i]
			if a.Col < 0 {
				st.count++
				continue
			}
			v := row[a.Col]
			if v.IsNull() {
				continue
			}
			if st.count == 0 || v.Compare(r.Rows[st.min][a.Col]) < 0 {
				st.min = int32(ri)
			}
			if st.count == 0 || v.Compare(r.Rows[st.max][a.Col]) > 0 {
				st.max = int32(ri)
			}
			st.count++
			st.sum += v.AsFloat()
		}
	}
	if len(groupBy) == 0 && len(firsts) == 0 {
		// Global aggregate over empty input.
		firsts = append(firsts, -1)
		states = append(states, make([]aggState, len(aggs))...)
	}

	out := Relation{Schema: sch}
	if len(firsts) == 0 {
		return out
	}
	width := len(groupBy) + len(aggs)
	slab := make([]value.Value, len(firsts)*width)
	out.Rows = make([]value.Row, len(firsts))
	for g, first := range firsts {
		row := slab[g*width : (g+1)*width : (g+1)*width]
		for k, c := range groupBy {
			row[k] = r.Rows[first][c]
		}
		for i, a := range aggs {
			st := states[g*len(aggs)+i]
			v := value.NewNull()
			switch {
			case a.Func == Count:
				v = value.NewInt(st.count)
			case st.count == 0: // SUM, AVG, MIN and MAX of nothing are NULL
			case a.Func == Sum:
				v = value.NewFloat(st.sum)
			case a.Func == Avg:
				v = value.NewFloat(st.sum / float64(st.count))
			case a.Func == Min:
				v = r.Rows[st.min][a.Col]
			case a.Func == Max:
				v = r.Rows[st.max][a.Col]
			}
			row[len(groupBy)+i] = v
		}
		out.Rows[g] = row
	}
	return out
}

// OrderBy sorts the relation by the given columns; desc[i] flips column i.
// The sort is stable.
func (r Relation) OrderBy(cols []int, desc []bool) Relation {
	rows := make([]value.Row, len(r.Rows))
	copy(rows, r.Rows)
	sort.SliceStable(rows, func(i, j int) bool {
		for k, c := range cols {
			cmp := rows[i][c].Compare(rows[j][c])
			if cmp == 0 {
				continue
			}
			if k < len(desc) && desc[k] {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return Relation{Schema: r.Schema, Rows: rows}
}

// Limit truncates the relation to at most n rows.
func (r Relation) Limit(n int) Relation {
	if n < 0 || n >= len(r.Rows) {
		return r
	}
	return Relation{Schema: r.Schema, Rows: r.Rows[:n]}
}
