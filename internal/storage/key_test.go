package storage

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"payless/internal/value"
)

// oracleJoinKey is the string join key that HashJoin and Aggregate used
// before the typed key: kind digit plus String() per column, 0x1f between
// columns, integral Floats folded to Int.
func oracleJoinKey(row value.Row, cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		v := row[c]
		if v.K == value.Float && v.F == float64(int64(v.F)) {
			v = value.NewInt(int64(v.F))
		}
		b.WriteByte(byte(v.K) + '0')
		b.WriteString(v.String())
	}
	return b.String()
}

// oracleHashJoin is HashJoin as it was with the string key.
func oracleHashJoin(r, s Relation, lc, rc []int) Relation {
	out := Relation{Schema: append(r.Schema.Clone(), s.Schema.Clone()...)}
	if len(lc) != len(rc) || len(lc) == 0 {
		for _, a := range r.Rows {
			for _, b := range s.Rows {
				out.Rows = append(out.Rows, append(append(value.Row{}, a...), b...))
			}
		}
		return out
	}
	build, probe := s, r
	bc, pc := rc, lc
	swapped := false
	if len(r.Rows) < len(s.Rows) {
		build, probe = r, s
		bc, pc = lc, rc
		swapped = true
	}
	ht := make(map[string][]value.Row, len(build.Rows))
	for _, row := range build.Rows {
		ht[oracleJoinKey(row, bc)] = append(ht[oracleJoinKey(row, bc)], row)
	}
	for _, prow := range probe.Rows {
		for _, brow := range ht[oracleJoinKey(prow, pc)] {
			var joined value.Row
			if swapped {
				joined = append(append(value.Row{}, brow...), prow...)
			} else {
				joined = append(append(value.Row{}, prow...), brow...)
			}
			out.Rows = append(out.Rows, joined)
		}
	}
	return out
}

// oracleAggregate is Aggregate's grouping and output as they were with the
// string key (the schema is not compared, so it is left out).
func oracleAggregate(r Relation, groupBy []int, aggs []AggSpec) Relation {
	type aggState struct {
		count int64
		sum   float64
		min   value.Value
		max   value.Value
		seen  bool
	}
	groups := make(map[string][]*aggState)
	keys := make(map[string]value.Row)
	var order []string
	for _, row := range r.Rows {
		gk := oracleJoinKey(row, groupBy)
		states, ok := groups[gk]
		if !ok {
			states = make([]*aggState, len(aggs))
			for i := range states {
				states[i] = &aggState{}
			}
			groups[gk] = states
			keys[gk] = value.Project(row, groupBy)
			order = append(order, gk)
		}
		for i, a := range aggs {
			st := states[i]
			if a.Col < 0 {
				st.count++
				continue
			}
			v := row[a.Col]
			if v.IsNull() {
				continue
			}
			st.count++
			st.sum += v.AsFloat()
			if !st.seen || v.Compare(st.min) < 0 {
				st.min = v
			}
			if !st.seen || v.Compare(st.max) > 0 {
				st.max = v
			}
			st.seen = true
		}
	}
	if len(groupBy) == 0 && len(order) == 0 {
		groups[""] = make([]*aggState, len(aggs))
		for i := range groups[""] {
			groups[""][i] = &aggState{}
		}
		keys[""] = value.Row{}
		order = append(order, "")
	}
	var out Relation
	for _, gk := range order {
		states := groups[gk]
		row := append(value.Row{}, keys[gk]...)
		for i, a := range aggs {
			st := states[i]
			switch a.Func {
			case Count:
				row = append(row, value.NewInt(st.count))
			case Sum:
				if st.count == 0 {
					row = append(row, value.NewNull())
				} else {
					row = append(row, value.NewFloat(st.sum))
				}
			case Avg:
				if st.count == 0 {
					row = append(row, value.NewNull())
				} else {
					row = append(row, value.NewFloat(st.sum/float64(st.count)))
				}
			case Min:
				if !st.seen {
					row = append(row, value.NewNull())
				} else {
					row = append(row, st.min)
				}
			case Max:
				if !st.seen {
					row = append(row, value.NewNull())
				} else {
					row = append(row, st.max)
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// keyPool mixes every key kind the typed key must treat as the string key
// did: Ints, integral Floats that fold onto them (-0.0 and -2^63 too),
// non-integral Floats, Infs, NaNs with different bits, Nulls and Strings
// that print like numbers. No String holds the old key's 0x1f column
// separator: across columns the old key aliased on it, the typed key does
// not.
var keyPool = []value.Value{
	value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(-1), value.NewInt(math.MinInt64),
	value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(1), value.NewFloat(2), value.NewFloat(-1),
	value.NewFloat(-math.Exp2(63)), value.NewFloat(0.5), value.NewFloat(-2.25), value.NewFloat(1e300),
	value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
	value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0x7ff0000000000002)),
	value.NewFloat(math.Float64frombits(0xfff0000000000001)),
	value.NewNull(), value.NewNull(),
	value.NewString(""), value.NewString("a"), value.NewString("0"), value.NewString("2"),
	value.NewString("NULL"), value.NewString("NaN"), value.NewString("é"),
}

// randRelation draws n rows of keys key columns from keyPool, then one Int
// row id and one nullable numeric payload column.
func randRelation(rng *rand.Rand, n, keys int, id int64) Relation {
	rel := Relation{Schema: make(value.Schema, keys+2)}
	for c := range rel.Schema {
		rel.Schema[c] = value.Column{Name: fmt.Sprintf("c%d", c), Type: value.Int}
	}
	for i := 0; i < n; i++ {
		row := make(value.Row, 0, keys+2)
		for c := 0; c < keys; c++ {
			row = append(row, keyPool[rng.Intn(len(keyPool))])
		}
		payload := value.NewFloat(float64(rng.Intn(9)) / 4)
		switch rng.Intn(4) {
		case 0:
			payload = value.NewNull()
		case 1:
			payload = value.NewInt(int64(rng.Intn(9)))
		}
		rel.Rows = append(rel.Rows, append(row, value.NewInt(id+int64(i)), payload))
	}
	return rel
}

func sameValue(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// sameRows reports where got and want first differ, in order and bit for
// bit (NaN payloads included), or "" when they are identical.
func sameRows(got, want []value.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: %v, want %v", i, got[i], want[i])
		}
		for j := range got[i] {
			if !sameValue(got[i][j], want[i][j]) {
				return fmt.Sprintf("row %d: %v, want %v", i, got[i], want[i])
			}
		}
	}
	return ""
}

// checkJoin compares HashJoin against the oracle and checks that every
// joined row is capped at its width.
func checkJoin(t *testing.T, name string, l, r Relation, lc, rc []int) {
	t.Helper()
	got := HashJoin(l, r, lc, rc)
	if diff := sameRows(got.Rows, oracleHashJoin(l, r, lc, rc).Rows); diff != "" {
		t.Fatalf("%s: HashJoin differs from the string-key oracle: %s", name, diff)
	}
	if len(got.Schema) != len(l.Schema)+len(r.Schema) {
		t.Fatalf("%s: schema %v", name, got.Schema)
	}
	for i, row := range got.Rows {
		if cap(row) != len(row) {
			t.Fatalf("%s: row %d has cap %d, width %d", name, i, cap(row), len(row))
		}
	}
}

// oracleRuns numbers the runs of TestTypedKeyMatchesStringKeyOracle in
// this process, so that -count N draws seeds 1..N.
var oracleRuns atomic.Int64

// TestTypedKeyMatchesStringKeyOracle checks HashJoin and Aggregate against
// the string-key versions they replaced on seeded random relations: same
// rows in the same order, with both build-side orientations, 1–3 key
// columns, and no usable keys (the cartesian product).
func TestTypedKeyMatchesStringKeyOracle(t *testing.T) {
	seed := oracleRuns.Add(1)
	rng := rand.New(rand.NewSource(seed))
	aggs := []AggSpec{{Func: Count, Col: -1}, {Func: Count, Col: -2}, {Func: Sum, Col: -2}, {Func: Avg, Col: -2}, {Func: Min, Col: -2}, {Func: Max, Col: -2}}
	joins := 0
	for round := 0; round < 300; round++ {
		keys := 1 + rng.Intn(3)
		small, large := rng.Intn(30), 30+rng.Intn(50)
		a := randRelation(rng, small, keys, 0)
		b := randRelation(rng, large, keys, 1000)
		cols := rng.Perm(keys)
		bcols := rng.Perm(keys)
		name := fmt.Sprintf("seed %d, round %d, %d key columns", seed, round, keys)
		// Smaller side left builds on the left (swapped); smaller side right
		// builds on the right.
		checkJoin(t, name+", build left", a, b, cols, bcols)
		checkJoin(t, name+", build right", b, a, bcols, cols)
		checkJoin(t, name+", no keys", a, b, nil, nil)
		checkJoin(t, name+", mismatched keys", b, a, cols, nil)
		joins += HashJoin(a, b, cols, bcols).Len()

		payload := keys + 1
		resolved := make([]AggSpec, len(aggs))
		for i, s := range aggs {
			resolved[i] = s
			if s.Col == -2 {
				resolved[i].Col = payload
			}
		}
		groupBy := rng.Perm(keys)[:rng.Intn(keys+1)]
		for _, rel := range []Relation{a, b, {Schema: a.Schema}} {
			got := Aggregate(rel, groupBy, resolved)
			if diff := sameRows(got.Rows, oracleAggregate(rel, groupBy, resolved).Rows); diff != "" {
				t.Fatalf("%s: Aggregate by %v differs from the string-key oracle: %s", name, groupBy, diff)
			}
			for i, row := range got.Rows {
				if cap(row) != len(row) {
					t.Fatalf("%s: group row %d has cap %d, width %d", name, i, cap(row), len(row))
				}
			}
		}
	}
	if joins == 0 {
		t.Fatal("no round produced a joined row")
	}

	// Duplicate runs on both sides: a 2x3 run gives 6 rows.
	l := Relation{Schema: sch("a"), Rows: []value.Row{intRow(2), intRow(2), intRow(3)}}
	r := Relation{Schema: sch("b"), Rows: []value.Row{intRow(2), intRow(2), intRow(2)}}
	checkJoin(t, "duplicate runs", l, r, []int{0}, []int{0})
	if n := HashJoin(l, r, []int{0}, []int{0}).Len(); n != 6 {
		t.Errorf("duplicate runs: %d rows, want 6", n)
	}
}

// TestJoinedRowAppendStaysInRow pins that joined rows share a slab without
// sharing capacity: appending to one row must not write into the next.
func TestJoinedRowAppendStaysInRow(t *testing.T) {
	l := Relation{Schema: sch("a", "x"), Rows: []value.Row{intRow(1, 10), intRow(1, 11)}}
	r := Relation{Schema: sch("b", "y"), Rows: []value.Row{intRow(1, 20), intRow(1, 21), intRow(1, 22)}}
	j := HashJoin(l, r, []int{0}, []int{0})
	if j.Len() != 6 {
		t.Fatalf("%d rows, want 6", j.Len())
	}
	next := j.Rows[1].Clone()
	_ = append(j.Rows[0], value.NewInt(99))
	if !j.Rows[1].Equal(next) {
		t.Fatalf("append to row 0 changed row 1: %v, want %v", j.Rows[1], next)
	}
}

// TestDistinctValuesTypedKey pins DistinctValues' key: no Int/Float
// folding, -0 apart from 0, and all NaNs equal.
func TestDistinctValuesTypedKey(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rel := Relation{Schema: sch("v")}
	for _, v := range []value.Value{
		value.NewInt(2), value.NewFloat(2), value.NewInt(2),
		value.NewFloat(0), value.NewFloat(negZero), value.NewFloat(0),
		value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0x7ff0000000000002)),
		value.NewNull(), value.NewNull(), value.NewString("2"),
	} {
		rel.Rows = append(rel.Rows, value.Row{v})
	}
	want := []value.Value{
		value.NewInt(2), value.NewFloat(2),
		value.NewFloat(0), value.NewFloat(negZero),
		value.NewFloat(math.NaN()),
		value.NewNull(), value.NewString("2"),
	}
	got := rel.DistinctValues(0)
	if len(got) != len(want) {
		t.Fatalf("DistinctValues = %v, want %v", got, want)
	}
	for i := range want {
		if !sameValue(got[i], want[i]) {
			t.Fatalf("DistinctValues[%d] = %v (bits %x), want %v (bits %x)", i, got[i],
				math.Float64bits(got[i].F), want[i], math.Float64bits(want[i].F))
		}
	}
}

// TestHashCollisionDoesNotJoin joins and groups two keys built to share a
// keyHash: Int(bits(0.5) ^ 3<<56) and Float(0.5) feed the same word into
// the hash. A hash hit must be confirmed by key equality before it counts.
func TestHashCollisionDoesNotJoin(t *testing.T) {
	half := value.NewFloat(0.5)
	twin := value.NewInt(int64(math.Float64bits(0.5) ^ 3<<56))
	l := Relation{Schema: sch("a"), Rows: []value.Row{{twin}}}
	r := Relation{Schema: sch("b"), Rows: []value.Row{{half}, {twin}}}
	if keyHash(l.Rows[0], []int{0}) != keyHash(r.Rows[0], []int{0}) {
		t.Fatal("the two keys no longer collide; pick a new colliding pair")
	}
	checkJoin(t, "colliding keys", l, r, []int{0}, []int{0})
	checkJoin(t, "colliding keys", r, l, []int{0}, []int{0})
	if n := HashJoin(l, r, []int{0}, []int{0}).Len(); n != 1 {
		t.Errorf("colliding keys joined into %d rows, want 1", n)
	}
	if n := Aggregate(r, []int{0}, []AggSpec{{Func: Count, Col: -1}}).Len(); n != 2 {
		t.Errorf("colliding keys grouped into %d groups, want 2", n)
	}
}
