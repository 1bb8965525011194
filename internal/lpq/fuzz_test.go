package lpq

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lambada/internal/columnar"
)

// fuzzSeedChunk has a column for every encoding the writer chooses: sorted
// ints (Delta), few distinct ints and floats (Dict), long runs (RLE), and
// random floats (Plain).
func fuzzSeedChunk(n int) *columnar.Chunk {
	rng := rand.New(rand.NewSource(5))
	c := columnar.NewChunk(columnar.NewSchema(
		columnar.Field{Name: "id", Type: columnar.Int64},
		columnar.Field{Name: "status", Type: columnar.Int64},
		columnar.Field{Name: "day", Type: columnar.Int64},
		columnar.Field{Name: "tax", Type: columnar.Float64},
		columnar.Field{Name: "price", Type: columnar.Float64},
		columnar.Field{Name: "flag", Type: columnar.Bool},
	), n)
	for i := 0; i < n; i++ {
		c.Columns[0].AppendInt64(int64(1000 + 3*i))
		c.Columns[1].AppendInt64(int64(rng.Intn(4)) * 1_000_003)
		c.Columns[2].AppendInt64(int64(i / 24))
		c.Columns[3].AppendFloat64(float64(rng.Intn(5)) / 100)
		c.Columns[4].AppendFloat64(rng.Float64() * 1e4)
		c.Columns[5].AppendBool(i%32 < 24)
	}
	return c
}

// fuzzDecodeValues is the decoded size up to which FuzzOpenReadAll drives
// ReadAll. Past it a small file is either a bomb or a legitimately dense
// one — a run of any length is two varints, gzip inflates 1032:1 — and no
// reader can tell which; OpenReader has held every claim the bytes can
// vouch for to the file, and a caller reading untrusted input decides by
// FileMeta.TotalRows.
const fuzzDecodeValues = 1 << 20

// fuzzSeeds are the fuzz target's seed files: a plain file, gzip with small
// row groups, and a paged v2 file.
func fuzzSeeds(t testing.TB) [][]byte {
	c := fuzzSeedChunk(96)
	var seeds [][]byte
	for _, opts := range []WriterOptions{
		{},
		{Compression: Gzip, RowGroupRows: 32},
		{RowGroupRows: 64, PageRows: 16},
	} {
		blob, err := WriteFile(c.Schema, opts, c)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	return seeds
}

// FuzzOpenReadAll: opening and reading arbitrary bytes returns a typed
// error or a chunk that validates and holds the rows the footer promised —
// never a panic, and for an input of at most 4 KiB never more than 64 MiB
// allocated: no length read from the file reserves memory the file cannot
// back. testdata/fuzz/FuzzOpenReadAll holds the crashers found so far.
func FuzzOpenReadAll(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(checkOpenReadAll)
}

// TestOpenReadAllMutations holds a few thousand seeded byte mutations of
// the seed files to the fuzz property on every `go test`, whether or not a
// fuzzing engine ever runs.
func TestOpenReadAllMutations(t *testing.T) {
	seeds := fuzzSeeds(t)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 4000 && !t.Failed(); i++ {
		data := bytes.Clone(seeds[i%len(seeds)])
		for k := 1 + rng.Intn(4); k > 0; k-- {
			at := rng.Intn(len(data))
			if rng.Intn(3) == 0 {
				// A maximal varint: lengths and counts that overflow.
				copy(data[at:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
			} else {
				data[at] = byte(rng.Intn(256))
			}
		}
		checkOpenReadAll(t, data)
	}
}

func checkOpenReadAll(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	var out *columnar.Chunk
	if err == nil && r.Meta().TotalRows <= fuzzDecodeValues/int64(r.Schema().Len()) {
		out, err = r.ReadAll()
	}
	runtime.ReadMemStats(&after)
	switch {
	case err != nil:
		if !strings.HasPrefix(err.Error(), "lpq: ") {
			t.Errorf("untyped error: %v", err)
		}
	case out != nil:
		if err := out.Validate(); err != nil {
			t.Errorf("decoded chunk invalid: %v", err)
		}
		if int64(out.NumRows()) != r.Meta().TotalRows {
			t.Errorf("decoded %d rows, footer promised %d", out.NumRows(), r.Meta().TotalRows)
		}
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; len(data) <= 4<<10 && alloc > 64<<20 {
		t.Errorf("%d input bytes allocated %d MiB", len(data), alloc>>20)
	}
}
