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
// values in first-seen order, found through an open-addressing table. A
// writer owns one and reuses it from column to column, so profiling costs
// no allocation once the table has grown to the row-group size. The dict
// encoder reads the values the profile pass left here instead of collecting
// them again.
type valueSet struct {
	slots []setSlot // power-of-two length, linear probing, at most half full
	// Exactly one list is in use, by column type. A Float64 column's ±0 are
	// one value (the first seen is kept) and each NaN is its own.
	ints   []int64
	floats []float64
}

// setSlot maps a value's 64 bits to ref-1, its index in the distinct list;
// ref 0 marks an empty slot.
type setSlot struct {
	key uint64
	ref int
}

// reset empties the set and sizes the table for up to n distinct values.
func (s *valueSet) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(s.slots) < size {
		s.slots = make([]setSlot, size)
	} else {
		s.slots = s.slots[:size]
		clear(s.slots)
	}
	s.ints, s.floats = s.ints[:0], s.floats[:0]
}

// find returns key's slot, or the empty slot where key belongs.
func (s *valueSet) find(key uint64) *setSlot {
	mask := uint64(len(s.slots) - 1)
	for i := columnar.Hash64(int64(key)) & mask; ; i = (i + 1) & mask {
		if sl := &s.slots[i]; sl.ref == 0 || sl.key == key {
			return sl
		}
	}
}

// floatKey is x's table key: its bits, with -0 folded onto +0 so the two
// compare equal as they do as floats. NaNs never enter the table.
func floatKey(x float64) uint64 {
	if x == 0 {
		return 0
	}
	return math.Float64bits(x)
}

// profile scans v once, leaving its distinct values in the set.
func (s *valueSet) profile(v *columnar.Vector) colProfile {
	var p colProfile
	n := v.Len()
	if n == 0 {
		s.reset(0)
		return p
	}
	switch v.Type {
	case columnar.Int64:
		s.reset(n)
		s.ints = slices.Grow(s.ints, n)
		xs := v.Int64s
		p.sorted, p.runs = true, 1
		lo, hi := xs[0], xs[0]
		for i, x := range xs {
			if i > 0 {
				if x == xs[i-1] {
					continue
				}
				p.runs++
				if x < xs[i-1] {
					p.sorted = false
				}
			}
			lo, hi = min(lo, x), max(hi, x)
			if sl := s.find(uint64(x)); sl.ref == 0 {
				s.ints = append(s.ints, x)
				sl.key, sl.ref = uint64(x), len(s.ints)
			}
		}
		p.distinct = int64(len(s.ints))
		p.stats = Stats{HasMinMax: true, MinInt: lo, MaxInt: hi, MinF: float64(lo), MaxF: float64(hi)}
	case columnar.Float64:
		s.reset(n)
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
			if sl := s.find(floatKey(x)); sl.ref == 0 {
				s.floats = append(s.floats, x)
				sl.key, sl.ref = floatKey(x), len(s.floats)
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
// (profile(v) was the last call on it); it is left holding them sorted.
func (s *valueSet) appendDict(dst []byte, v *columnar.Vector) []byte {
	if v.Type == columnar.Int64 {
		slices.Sort(s.ints)
		dst = putUvarint(dst, uint64(len(s.ints)))
		for i, x := range s.ints {
			s.find(uint64(x)).ref = i + 1
			dst = putUvarint(dst, zigzag(x))
		}
		for _, x := range v.Int64s {
			dst = putUvarint(dst, uint64(s.find(uint64(x)).ref-1))
		}
		return dst
	}
	// NaNs sort first and no value ever equals one, so each NaN in the
	// column takes index 0 — the first NaN entry.
	sort.Float64s(s.floats)
	dst = putUvarint(dst, uint64(len(s.floats)))
	for i, x := range s.floats {
		if x == x {
			s.find(floatKey(x)).ref = i + 1
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	for _, x := range v.Float64s {
		idx := 0
		if x == x {
			idx = s.find(floatKey(x)).ref - 1
		}
		dst = putUvarint(dst, uint64(idx))
	}
	return dst
}
