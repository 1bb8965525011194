package lpq

import (
	"bytes"
	"errors"
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

// rleBomb is one Int64 column of ten million equal values: about 20 KB of
// lpq — a footer, and a two-varint run per page of 4096 rows — that decodes
// to 80 MB. It is written a row group at a time, so building it costs one
// row group, not the 80 MB it stands for.
func rleBomb(t testing.TB) []byte {
	schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
	group := columnar.NewChunk(schema, DefaultRowGroupRows)
	for i := 0; i < DefaultRowGroupRows; i++ {
		group.Columns[0].AppendInt64(7)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, schema, WriterOptions{})
	for n := 10_000_000; n > 0; n -= DefaultRowGroupRows {
		if err := w.Write(group.Slice(0, min(n, DefaultRowGroupRows))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFiles: decoding up to two files of arbitrary bytes (an empty one
// is no file) under a bound of up to 64 MiB returns a typed error or a chunk
// that validates, holds the rows the footers promised and at most bound
// bytes — never a panic, and never more allocated than the bound plus what
// the blobs back (readFilesBacked). testdata/fuzz/FuzzReadFiles holds the
// RLE bomb at a 16 MiB bound: ten million rows the decoder must refuse
// before it allocates them.
func FuzzReadFiles(f *testing.F) {
	seeds := fuzzSeeds(f)
	for i, seed := range seeds {
		f.Add(seed, []byte{}, int64(1<<20))
		f.Add(seed, seeds[(i+1)%len(seeds)], int64(1<<20))
	}
	f.Fuzz(checkReadFiles)
}

// TestReadFilesMutations holds seeded byte mutations of the seed files, the
// RLE bomb among them, alone and in pairs, to FuzzReadFiles' property on
// every `go test`.
func TestReadFilesMutations(t *testing.T) {
	seeds := append(fuzzSeeds(t), rleBomb(t))
	bounds := []int64{0, 1 << 10, 64 << 10, 1 << 20, 16 << 20}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000 && !t.Failed(); i++ {
		files := [2][]byte{}
		for j := range 1 + rng.Intn(2) {
			data := bytes.Clone(seeds[rng.Intn(len(seeds))])
			for k := rng.Intn(4); k > 0; k-- {
				at := rng.Intn(len(data))
				if rng.Intn(3) == 0 {
					copy(data[at:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
				} else {
					data[at] = byte(rng.Intn(256))
				}
			}
			files[j] = data
		}
		checkReadFiles(t, files[0], files[1], bounds[rng.Intn(len(bounds))])
	}
}

// TestReadFilesBound: the bound is the chunk's ByteSize, summed over the
// files — a chunk of exactly the bound decodes, a byte less is refused — and
// the bomb is refused, typed, with next to nothing allocated.
func TestReadFilesBound(t *testing.T) {
	c := fuzzSeedChunk(96)
	blob, err := WriteFile(c.Schema, WriterOptions{}, c)
	if err != nil {
		t.Fatal(err)
	}
	size := 2 * c.ByteSize()
	got, err := ReadFiles(size, blob, nil, blob)
	if err != nil || got.NumRows() != 2*c.NumRows() || got.ByteSize() != size {
		t.Fatalf("two files at their exact size: %v, %v", got, err)
	}
	if _, err := ReadFiles(size-1, blob, blob); !errors.Is(err, ErrOverBound) {
		t.Errorf("two files a byte over the bound: %v, want ErrOverBound", err)
	}
	if _, err := ReadFiles(size, nil); err == nil {
		t.Error("no file decoded without an error")
	}
	bomb := rleBomb(t)
	var decoded error
	alloc := allocated(t, func() { _, decoded = ReadFiles(64<<20, bomb) })
	if !errors.Is(decoded, ErrOverBound) {
		t.Errorf("the %d-byte bomb at a 64 MiB bound: %v, want ErrOverBound", len(bomb), decoded)
	}
	if alloc > readFilesBacked(len(bomb)) {
		t.Errorf("refusing the bomb allocated %d bytes", alloc)
	}
}

// readFilesBacked is what n bytes of lpq can make ReadFiles allocate beside
// the chunk: inflate scratch (deflate expands at most 1032:1), the decoded
// footer's structures and read buffers (well under 64 bytes per input
// byte), and 1 MiB of fixed decoder state (the gzip readers among it).
func readFilesBacked(n int) uint64 { return uint64(n)*(1032+64) + 1<<20 }

func checkReadFiles(t *testing.T, a, b []byte, bound int64) {
	bound &= 64<<20 - 1
	var blobs [][]byte
	for _, blob := range [][]byte{a, b} {
		if len(blob) > 0 {
			blobs = append(blobs, blob)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := ReadFiles(bound, blobs...)
	runtime.ReadMemStats(&after)
	switch {
	case err != nil:
		if !strings.HasPrefix(err.Error(), "lpq: ") {
			t.Errorf("untyped error: %v", err)
		}
	case out == nil:
		t.Error("neither a chunk nor an error")
	case out.ByteSize() > bound:
		t.Errorf("decoded %d bytes past the %d-byte bound", out.ByteSize(), bound)
	default:
		if err := out.Validate(); err != nil {
			t.Errorf("decoded chunk invalid: %v", err)
		}
		var rows int64
		for _, blob := range blobs {
			r, err := OpenReader(bytes.NewReader(blob), int64(len(blob)))
			if err != nil {
				t.Fatalf("a file ReadFiles decoded does not open: %v", err)
			}
			rows += r.Meta().TotalRows
		}
		if int64(out.NumRows()) != rows {
			t.Errorf("decoded %d rows, footers promised %d", out.NumRows(), rows)
		}
	}
	if alloc, most := after.TotalAlloc-before.TotalAlloc, uint64(bound)+readFilesBacked(len(a)+len(b)); !raceEnabled && alloc > most {
		t.Errorf("%d input bytes allocated %d bytes at a %d-byte bound, want at most %d", len(a)+len(b), alloc, bound, most)
	}
}
