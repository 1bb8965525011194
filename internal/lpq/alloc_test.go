package lpq

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/tpch"
)

// allocated returns the bytes f allocates (TotalAlloc counts every
// allocation, collected or not). The tests using it do not run in parallel,
// and not under the race detector, which pads what is allocated.
func allocated(t *testing.T, f func()) uint64 {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWriteFileAllocatesInProportion: a small file costs what its rows
// cost, not a default-sized row-group buffer per column (the writer used to
// allocate two of those, 1 MiB per column each, for every file).
func TestWriteFileAllocatesInProportion(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "a", Type: columnar.Int64},
		columnar.Field{Name: "b", Type: columnar.Int64},
		columnar.Field{Name: "c", Type: columnar.Float64},
		columnar.Field{Name: "d", Type: columnar.Bool},
	)
	c := columnar.NewChunk(schema, 100)
	for i := 0; i < 100; i++ {
		c.Columns[0].AppendInt64(int64(i * 7919 % 101))
		c.Columns[1].AppendInt64(int64(i % 3))
		c.Columns[2].AppendFloat64(float64(i) / 3)
		c.Columns[3].AppendBool(i%5 == 0)
	}
	for _, opts := range []WriterOptions{{}, {Compression: Gzip}} {
		var err error
		got := allocated(t, func() { _, err = WriteFile(schema, opts, c) })
		if err != nil {
			t.Fatal(err)
		}
		// Gzip pays for its compressor once per file (about 1.2 MiB of
		// deflate state); without it the bound is 64 KiB.
		limit := uint64(64 << 10)
		if opts.Compression == Gzip {
			limit += 1400 << 10
		}
		if got >= limit {
			t.Errorf("%v: WriteFile of 100 rows × 4 columns allocated %d bytes, want < %d", opts.Compression, got, limit)
		}
	}
}

// TestStreamingWriterKeepsOneRowGroupBuffer: a Writer fed three row groups'
// worth of rows in small pieces grows one row-group buffer and reuses it —
// three more row groups cost no buffer at all.
func TestStreamingWriterKeepsOneRowGroupBuffer(t *testing.T) {
	const groupRows = 4096
	data := tpch.Gen{SF: 0.005, Seed: 7}.Generate() // 30000 rows ≥ 6 groups
	bufferBytes := uint64(data.Slice(0, groupRows).ByteSize())
	var pieces []*columnar.Chunk
	for lo := 0; lo < 6*groupRows; lo += 128 {
		pieces = append(pieces, data.Slice(lo, lo+128))
	}
	stream := func(groups int) uint64 {
		return allocated(t, func() {
			w := NewWriter(io.Discard, data.Schema, WriterOptions{RowGroupRows: groupRows})
			for _, piece := range pieces[:groups*groupRows/128] {
				if err := w.Write(piece); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got := len(w.Meta().RowGroups); got != groups {
				t.Fatalf("%d row groups, want %d", got, groups)
			}
		})
	}
	three, six := stream(3), stream(6)
	// Growing the one buffer by doubling allocates about two buffers' worth
	// in all (plus size-class rounding); the profile set and the encode
	// scratch of one column add under one more. The old writer allocated
	// four whole buffers here — one up front, one per flush — and a hash map
	// or three per column on top: 18 buffers' worth.
	if three >= 4*bufferBytes {
		t.Errorf("3 row groups streamed: %d bytes allocated, want < 4 × the %d-byte row-group buffer", three, bufferBytes)
	}
	if six > three+bufferBytes/4 {
		t.Errorf("6 row groups allocated %d bytes, 3 allocated %d: the buffer (%d bytes) is not reused", six, three, bufferBytes)
	}
}

// TestDecodeStateReusesInflater: N gzip pages decoded through one
// DecodeState build one inflater (32 KiB window plus Huffman tables, about
// 45 KiB), not N.
func TestDecodeStateReusesInflater(t *testing.T) {
	const pages, pageRows = 64, 64
	schema := columnar.NewSchema(columnar.Field{Name: "x", Type: columnar.Int64})
	c := columnar.NewChunk(schema, pages*pageRows)
	for i := 0; i < pages*pageRows; i++ {
		c.Columns[0].AppendInt64(int64(i * i % 1000))
	}
	data, err := WriteFile(schema, WriterOptions{PageRows: pageRows, Compression: Gzip}, c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	cc := r.Meta().RowGroups[0].Columns[0]
	if len(cc.Pages) != pages {
		t.Fatalf("%d pages, want %d", len(cc.Pages), pages)
	}
	stored := data[cc.Offset : cc.Offset+cc.CompressedLen]

	var st DecodeState
	got := allocated(t, func() {
		for _, pg := range cc.Pages {
			v, err := st.DecodePage(stored[pg.RelOff:pg.RelOff+pg.CompressedLen], columnar.Int64, cc, pg)
			if err != nil {
				t.Fatal(err)
			}
			if v.Len() != pageRows {
				t.Fatalf("page decoded to %d rows", v.Len())
			}
		}
	})
	if limit := uint64(256 << 10); got >= limit {
		t.Errorf("decoding %d gzip pages through one DecodeState allocated %d bytes, want < %d (one inflater, not %d)", pages, got, limit, pages)
	}

	// The whole-file path owns one state too.
	var all *columnar.Chunk
	got = allocated(t, func() { all, err = r.ReadAll() })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all.Columns, c.Columns) {
		t.Fatal("ReadAll mismatch")
	}
	if limit := uint64(256 << 10); got >= limit {
		t.Errorf("ReadAll over %d gzip pages allocated %d bytes, want < %d", pages, got, limit)
	}
}
