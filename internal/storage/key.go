package storage

import (
	"hash/maphash"
	"math"

	"payless/internal/value"
)

// keyVal is one key column as a comparable value: the kind, an Int's value
// or a Float's bits, and a String's bytes. Go equality on it is the key
// equality.
type keyVal struct {
	k value.Kind
	i int64
	s string
}

var (
	nanBits = int64(math.Float64bits(math.NaN())) // every NaN keys as this one
	keySeed = maphash.MakeSeed()
)

// distinctVal keys v for DISTINCT: no Int/Float folding, -0 apart from 0,
// all NaNs equal, and Null equal to Null.
func distinctVal(v value.Value) keyVal {
	switch {
	case v.K == value.Int:
		return keyVal{k: v.K, i: v.I}
	case v.K == value.Float && v.F != v.F:
		return keyVal{k: v.K, i: nanBits}
	case v.K == value.Float:
		return keyVal{k: v.K, i: int64(math.Float64bits(v.F))}
	case v.K == value.String:
		return keyVal{k: v.K, s: v.S}
	}
	return keyVal{k: v.K}
}

// joinVal keys v for equi-joins and GROUP BY: distinctVal, except that a
// Float with an integral value folds to Int, so Int(2) joins Float(2.0) and
// -0.0 joins Int(0).
func joinVal(v value.Value) keyVal {
	if v.K == value.Float && v.F == float64(int64(v.F)) {
		return keyVal{k: value.Int, i: int64(v.F)}
	}
	return distinctVal(v)
}

// keyHash hashes row's columns cols under joinVal equality, with no string
// building. Distinct keys may collide, so a hash hit counts only once
// keysEqual confirms it.
func keyHash(row value.Row, cols []int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		kv := joinVal(row[c])
		x := uint64(kv.k)<<56 ^ uint64(kv.i)
		if kv.k == value.String {
			x ^= maphash.String(keySeed, kv.s)
		}
		h = (h ^ x) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// keysEqual reports whether a's columns ac and b's columns bc hold equal
// keys, column by column.
func keysEqual(a value.Row, ac []int, b value.Row, bc []int) bool {
	for i, c := range ac {
		if joinVal(a[c]) != joinVal(b[bc[i]]) {
			return false
		}
	}
	return true
}

// keyChains links entries (build rows, groups) by key hash: head[h] is
// the newest entry under hash h and next[i] the entry added under i's hash
// before it, with -1 ending a chain.
type keyChains struct {
	head map[uint64]int32
	next []int32
}

// add links the next entry under h and returns its index.
func (c *keyChains) add(h uint64) int32 {
	i := int32(len(c.next))
	c.next = append(c.next, c.first(h))
	c.head[h] = i
	return i
}

// first returns the newest entry under h, or -1.
func (c *keyChains) first(h uint64) int32 {
	if j, ok := c.head[h]; ok {
		return j
	}
	return -1
}
