package columnar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestKeyTableNumbersFirstSeen checks the key table against a map: over
// tuples of 0 to 3 keys, narrow batches (the dense mode) and wide ones (the
// hashed mode), later batches that leave a dense table's range, single
// inserts and finds of present and absent tuples, every tuple gets the next
// ordinal on first sight and keeps it, and Keys holds the tuples
// ordinal-major.
func TestKeyTableNumbersFirstSeen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{0, 1, 2, 3} {
		for _, spread := range []int64{1, 3, 1000000007} {
			t.Run(fmt.Sprintf("w=%d/spread=%d", w, spread), func(t *testing.T) {
				var tab KeyTable
				tab.Reset(w)
				want := map[string]int32{}
				var order [][]int64
				ref := func(key []int64, insert bool) int32 {
					s := fmt.Sprint(key)
					g, ok := want[s]
					if !ok {
						if !insert {
							return -1
						}
						g = int32(len(order))
						want[s] = g
						order = append(order, slices.Clone(key))
					}
					return g
				}
				draw := func(width int64) []int64 {
					key := make([]int64, w)
					for j := range key {
						key[j] = (rng.Int63n(width) - width/2) * spread
					}
					return key
				}
				for round, width := range []int64{8, 8, 40, 1 << 20} {
					rows := 300
					if round > 0 {
						rows = 1 + rng.Intn(300)
					}
					cols := make([][]int64, w)
					keys := make([][]int64, rows)
					for i := range keys {
						keys[i] = draw(width)
						for j := range cols {
							cols[j] = append(cols[j], keys[i][j])
						}
					}
					ords := make([]int32, rows)
					tab.Number(cols, ords)
					if w > 0 && (round == 0 && spread == 1 && !tab.dense || round == 3 && tab.dense) {
						t.Fatalf("round %d: dense %v", round, tab.dense)
					}
					for i, key := range keys {
						if g := ref(key, true); ords[i] != g {
							t.Fatalf("round %d row %d: ordinal %d, want %d", round, i, ords[i], g)
						}
					}
					for i := 0; i < 50; i++ {
						key := draw(2 * width)
						if g, h := tab.Find(key), ref(key, false); g != h {
							t.Fatalf("round %d: Find(%v) = %d, want %d", round, key, g, h)
						}
						n := len(order)
						if g, added := tab.Insert(key); g != ref(key, true) || added != (len(order) > n) {
							t.Fatalf("round %d: Insert(%v) = %d, %v", round, key, g, added)
						}
					}
				}
				if tab.Len() != len(order) {
					t.Fatalf("Len %d, want %d", tab.Len(), len(order))
				}
				if got := tab.Keys(); !slices.Equal(got, slices.Concat(order...)) {
					t.Fatalf("Keys are not the tuples in first-seen order")
				}
			})
		}
	}
}

// TestKeyTableSpreadsOnePartition: a worker behind an exchange boundary
// holds the keys of one partition, all of whose boundary hashes agree in
// their low bits. The key table slots by the top bits, so those keys still
// spread: 50 000 of them, sparse and in one slot of a 4-, 30- or 256-way
// split, take at most two probes per tuple on average. (Slotted by the low
// bits, the 256-way partition took about 40.)
func TestKeyTableSpreadsOnePartition(t *testing.T) {
	const n = 50000
	for _, w := range []int{1, 2} {
		for _, parts := range []uint64{4, 30, 256} {
			cols := make([][]int64, w)
			for i := int64(0); len(cols[0]) < n; i++ {
				key := []int64{i * 1000000007, i % 7}[:w]
				if boundaryHash(key)%parts != 0 {
					continue
				}
				for j := range cols {
					cols[j] = append(cols[j], key[j])
				}
			}
			var tab KeyTable
			tab.Reset(w)
			tab.Number(cols, make([]int32, n))
			if tab.dense || tab.Len() != n {
				t.Fatalf("w=%d P=%d: dense %v, %d tuples; want the hashed mode over %d", w, parts, tab.dense, tab.Len(), n)
			}
			probes := 0
			mask := len(tab.slots) - 1
			for s, o := range tab.slots {
				if o == 0 {
					continue
				}
				home := int(hashKey(tab.keys[int(o-1)*w:int(o)*w]) >> tab.shift)
				probes += (s-home)&mask + 1
			}
			if mean := float64(probes) / n; mean > 2 {
				t.Errorf("w=%d P=%d: %.2f probes per tuple, want at most 2", w, parts, mean)
			}
		}
	}
}

// boundaryHash is the exchange's partition hash of a key tuple
// (exchange.HashPartition before its modulus), which imports this package.
func boundaryHash(key []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, k := range key {
		h = (h ^ Hash64(k)) * 1099511628211
	}
	return h
}

// TestKeyTableSort: Sort renumbers a dense and a hashed table of one-key
// tuples in key order, so each key's ordinal is its rank.
func TestKeyTableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, spread := range []int64{1, 1000000007} {
		col := make([]int64, 500)
		for i := range col {
			col[i] = (rng.Int63n(200) - 100) * spread
		}
		var tab KeyTable
		tab.Reset(1)
		tab.Number([][]int64{col}, nil)
		if tab.dense != (spread == 1) {
			t.Fatalf("spread %d: dense %v", spread, tab.dense)
		}
		want := slices.Clone(col)
		slices.Sort(want)
		want = slices.Compact(want)
		tab.Sort()
		if !slices.Equal(tab.Keys(), want) {
			t.Fatalf("spread %d: keys not sorted distinct", spread)
		}
		for rank, k := range want {
			if g := tab.Find([]int64{k}); g != int32(rank) {
				t.Fatalf("spread %d: Find(%d) = %d, want rank %d", spread, k, g, rank)
			}
		}
	}
}
