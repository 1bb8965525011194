package columnar

import (
	"math/bits"
	"slices"
)

// Hash64 is the partitioning hash shared by the serverless exchange and the
// key table (splitmix64 finalizer). The exchange splits a boundary by the
// hash's low bits, so every key one worker receives agrees in them; the key
// table slots a key by the top bits, which the split leaves spread, so one
// partition's keys probe as few slots as the whole key set's would.
func Hash64(x int64) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashKey chains Hash64 over a tuple's keys: a one-key tuple hashes as its
// key does.
func hashKey(key []int64) uint64 {
	var h uint64
	for _, k := range key {
		h = Hash64(int64(h) ^ k)
	}
	return h
}

const (
	maxDenseKeys  = 4 // the widest tuple a dense table indexes
	maxDenseSlots = 1 << 16
)

// KeyTable numbers tuples of w int64 keys 0, 1, 2, … in first-insert order
// and keeps them ordinal-major: ordinal g's keys are Keys()[g*w:(g+1)*w].
//
// Dense mode: Number into an empty table indexes the batch directly, and
// keeps no keys beside the index, when it has at most four key columns
// whose spans multiply to under 2^16 and at most 4 × rows + 64. Hashed mode,
// otherwise: linear probing in a power-of-two slot array at most half full,
// slotted by the top bits of the tuple's hash. A dense table that meets a
// key out of range rehashes.
type KeyTable struct {
	w     int
	n     int32   // ordinals handed out
	keys  []int64 // ordinal-major
	slots []int32 // ordinal+1, 0 = empty; dense: by key offset, hashed: by hash
	dense bool
	los   [maxDenseKeys]int64  // dense: each key column's lowest key
	spans [maxDenseKeys]uint64 // dense: each key column's span
	shift uint                 // hashed: 64 - log2(len(slots))
}

// Reset empties the table, keeping its memory, for tuples of w keys. The
// zero value needs a Reset.
func (t *KeyTable) Reset(w int) {
	t.w, t.n, t.dense = w, 0, false
	t.keys, t.slots = t.keys[:0], t.slots[:0]
}

// Len is the number of distinct tuples inserted.
func (t *KeyTable) Len() int { return int(t.n) }

// Keys returns the tuples, ordinal-major, in the table's own slice. A dense
// table keeps them only in its slots, and writes them out here.
func (t *KeyTable) Keys() []int64 {
	if t.dense {
		t.keys = slices.Grow(t.keys[:0], int(t.n)*t.w)[:int(t.n)*t.w]
		for s, o := range t.slots {
			for j, r := t.w-1, uint64(s); o != 0 && j >= 0; j-- {
				t.keys[int(o-1)*t.w+j] = t.los[j] + int64(r%t.spans[j])
				r /= t.spans[j]
			}
		}
	}
	return t.keys
}

// Grow sizes the table for n more tuples, so a hashed table takes them
// without allocating.
func (t *KeyTable) Grow(n int) {
	t.keys = slices.Grow(t.keys, n*t.w)
	if need := 2 * (int(t.n) + n); !t.dense && need > len(t.slots) {
		t.rehash(need)
	}
}

// Number inserts the rows of the key columns cols (one column per key) that
// the table has not seen. Given ords, it numbers len(ords) rows and sets
// ords[i] to row i's ordinal; given nil, it inserts all len(cols[0]) rows.
func (t *KeyTable) Number(cols [][]int64, ords []int32) {
	rows := len(ords)
	if ords == nil && len(cols) > 0 {
		rows = len(cols[0])
	}
	if t.n == 0 && rows > 0 && !t.indexDense(cols, rows) {
		t.Grow(rows)
	}
	var buf [maxDenseKeys]int64 // the tuple, on the stack for up to four keys
	key := buf[:0]
	for range cols {
		key = append(key, 0)
	}
	var o int32
	for i := 0; i < rows; i++ {
		same := i > 0 // as row i-1, whose tuple key and ordinal o still hold
		for j, col := range cols {
			same = same && col[i] == key[j]
			key[j] = col[i]
		}
		if !same {
			o = -1
			if t.dense {
				if s, ok := t.denseSlot(key); ok {
					if t.slots[s] == 0 {
						t.n++
						t.slots[s] = t.n
					}
					o = t.slots[s] - 1
				}
			}
			if o < 0 {
				o, _ = t.Insert(key)
			}
		}
		if ords != nil {
			ords[i] = o
		}
	}
}

// Insert returns the ordinal of the tuple key and whether this call added
// it. The table keeps a copy of key; a dense table rehashes first.
func (t *KeyTable) Insert(key []int64) (int32, bool) {
	if t.dense || 2*int(t.n+1) > len(t.slots) {
		t.rehash(2 * int(t.n+1))
	}
	h := hashKey(key)
	mask := len(t.slots) - 1
	for s := int(h >> t.shift); ; s = (s + 1) & mask {
		o := t.slots[s] - 1
		if o < 0 {
			for _, k := range key {
				t.keys = append(t.keys, k)
			}
			t.n++
			t.slots[s] = t.n
			return t.n - 1, true
		}
		if slices.Equal(t.keys[int(o)*t.w:int(o+1)*t.w], key) {
			return o, false
		}
	}
}

// Find returns the ordinal of the tuple key, or -1 if it was never inserted.
func (t *KeyTable) Find(key []int64) int32 {
	if t.dense {
		if s, ok := t.denseSlot(key); ok {
			return t.slots[s] - 1
		}
		return -1
	}
	if t.n == 0 {
		return -1
	}
	_, o := t.lookup(key)
	return o
}

// Sort renumbers a table of one-key tuples in ascending key order, so a
// key's ordinal is its rank.
func (t *KeyTable) Sort() {
	if t.w != 1 {
		panic("columnar: KeyTable.Sort on tuples of several keys")
	}
	if t.dense { // whose slots are in key order
		t.n = 0
		for s, o := range t.slots {
			if o != 0 {
				t.n++
				t.slots[s] = t.n
			}
		}
		return
	}
	slices.Sort(t.keys)
	t.rehash(2 * int(t.n))
}

// lookup returns the slot and ordinal of key, or the empty slot where key
// belongs and -1.
func (t *KeyTable) lookup(key []int64) (int, int32) {
	mask := len(t.slots) - 1
	for s := int(hashKey(key) >> t.shift); ; s = (s + 1) & mask {
		o := t.slots[s] - 1
		if o < 0 || slices.Equal(t.keys[int(o)*t.w:int(o+1)*t.w], key) {
			return s, o
		}
	}
}

// rehash slots every tuple anew into a hashed table of at least size slots.
func (t *KeyTable) rehash(size int) {
	if t.dense {
		t.Keys()
	}
	n := 8
	for n < size {
		n <<= 1
	}
	t.dense = false
	t.slots = slices.Grow(t.slots[:0], n)[:n]
	clear(t.slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for o := int32(0); o < t.n; o++ {
		s, _ := t.lookup(t.keys[int(o)*t.w : int(o+1)*t.w])
		t.slots[s] = o + 1
	}
}

// indexDense makes the empty table a direct index over the first rows of
// cols if the dense rule admits them, and reports whether it did.
func (t *KeyTable) indexDense(cols [][]int64, rows int) bool {
	if len(cols) > maxDenseKeys {
		return false
	}
	size := uint64(1)
	for j, col := range cols {
		lo, hi := col[0], col[0]
		for _, k := range col[:rows] {
			lo, hi = min(lo, k), max(hi, k)
		}
		d := uint64(hi) - uint64(lo)
		if d >= maxDenseSlots {
			return false
		}
		if size *= d + 1; size >= maxDenseSlots {
			return false
		}
		t.los[j], t.spans[j] = lo, d+1
	}
	if size > 4*uint64(rows)+64 {
		return false
	}
	t.dense = true
	t.slots = slices.Grow(t.slots[:0], int(size))[:size]
	clear(t.slots)
	return true
}

// denseSlot returns key's direct-index slot, or false if a key lies outside
// its column's span.
func (t *KeyTable) denseSlot(key []int64) (int, bool) {
	var s uint64
	for j, k := range key {
		off := uint64(k) - uint64(t.los[j])
		if off >= t.spans[j] {
			return 0, false
		}
		s = s*t.spans[j] + off
	}
	return int(s), true
}
