package lpq

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"lambada/internal/columnar"
)

// colProfile is what one pass over a column learns: everything the writer
// derives from the values — the encoding choice, the footer's distinct count
// and its min/max statistics.
type colProfile struct {
	sorted   bool  // Int64: non-decreasing
	runs     int   // Int64, Bool: maximal runs of equal values
	distinct int64 // exact; every NaN counts, as it would as a Go map key
	stats    Stats
}

// valueSet is the hash set behind the profile pass: one column's distinct
// values in first-seen order, numbered by a key table. A writer owns one and
// reuses it from column to column, so profiling costs no allocation once the
// table has grown to the row-group size. The dict encoder reads the values
// the profile pass left here instead of collecting them again.
type valueSet struct {
	keys columnar.KeyTable // an Int64 column's values, or a Float64 column's floatKeys
	// floats are a Float64 column's distinct values in first-seen order: its
	// ±0 are one value (the first seen is kept) and each NaN is its own.
	floats []float64
}

// floatKey is x's table key, which sorts as x does: the bits of x + 0 (+0
// for either zero, so ±0 are one value), a negative's flipped. NaNs never
// enter the table.
func floatKey(x float64) int64 {
	k := int64(math.Float64bits(x + 0))
	if k < 0 {
		k ^= math.MaxInt64
	}
	return k
}

// profile scans v once, leaving its distinct values in the set.
func (s *valueSet) profile(v *columnar.Vector) colProfile {
	var p colProfile
	n := v.Len()
	s.keys.Reset(1)
	s.floats = s.floats[:0]
	if n == 0 {
		return p
	}
	var key [1]int64
	switch v.Type {
	case columnar.Int64:
		xs := v.Int64s
		p.sorted, p.runs = true, 1
		lo, hi := xs[0], xs[0]
		for i := 1; i < n; i++ {
			if x := xs[i]; x != xs[i-1] {
				p.runs++
				p.sorted = p.sorted && x > xs[i-1]
				lo, hi = min(lo, x), max(hi, x)
			}
		}
		// Grown for n values before Number may index them densely, the
		// table allocates once for every column of the row group.
		s.keys.Grow(n)
		s.keys.Number([][]int64{xs}, nil)
		p.distinct = int64(s.keys.Len())
		p.stats = Stats{HasMinMax: true, MinInt: lo, MaxInt: hi, MinF: float64(lo), MaxF: float64(hi)}
	case columnar.Float64:
		s.keys.Grow(n)
		s.floats = slices.Grow(s.floats, n)
		xs := v.Float64s
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if x != x {
				s.floats = append(s.floats, x)
				continue
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			key[0] = floatKey(x)
			if _, added := s.keys.Insert(key[:]); added {
				s.floats = append(s.floats, x)
			}
		}
		p.distinct = int64(len(s.floats))
		p.stats = floatStats(lo, hi)
	default:
		p.runs, p.distinct = 1, 1
		for i := 1; i < n; i++ {
			if v.Bools[i] != v.Bools[i-1] {
				p.runs++
				p.distinct = 2
			}
		}
	}
	return p
}

// choose picks a light-weight encoding for an n-value column of type t from
// its profile: runs get RLE, sorted ints Delta, low-cardinality columns
// Dict, everything else Plain.
func (p *colProfile) choose(t columnar.Type, n int) Encoding {
	lowCard := p.distinct <= 4096 && p.distinct <= int64(n/4)
	switch {
	case n == 0:
		return Plain
	case t != columnar.Float64 && p.runs <= n/4:
		return RLE
	case t == columnar.Int64 && p.sorted:
		return Delta
	case t != columnar.Bool && lowCard:
		return Dict
	default:
		return Plain
	}
}

// appendDict appends v's dictionary encoding to dst: the sorted distinct
// values, then one index per value. The set must hold v's distinct values
// (profile(v) was the last call on it); it is left holding them sorted, a
// value's ordinal its rank.
func (s *valueSet) appendDict(dst []byte, v *columnar.Vector) []byte {
	s.keys.Sort()
	var key [1]int64
	if v.Type == columnar.Int64 {
		dst = putUvarint(dst, uint64(s.keys.Len()))
		for _, x := range s.keys.Keys() {
			dst = putUvarint(dst, zigzag(x))
		}
		for _, x := range v.Int64s {
			key[0] = x
			dst = putUvarint(dst, uint64(s.keys.Find(key[:])))
		}
		return dst
	}
	// NaNs sort first and stay out of the table, so each NaN in the column
	// takes index 0 (the first NaN entry) and any other value its rank past
	// them.
	sort.Float64s(s.floats)
	nans := len(s.floats) - s.keys.Len()
	dst = putUvarint(dst, uint64(len(s.floats)))
	for _, x := range s.floats {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	for _, x := range v.Float64s {
		idx := 0
		if x == x {
			key[0] = floatKey(x)
			idx = nans + int(s.keys.Find(key[:]))
		}
		dst = putUvarint(dst, uint64(idx))
	}
	return dst
}
