package main

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

// readAll parses the whole input into one chunk.
func readAll(r io.Reader, schema *columnar.Schema) (*columnar.Chunk, error) {
	out := columnar.NewChunk(schema, 0)
	err := readCSV(r, schema, func(c *columnar.Chunk) error {
		out.AppendChunk(c)
		return nil
	})
	return out, err
}

func TestWriteReadRoundTrip(t *testing.T) {
	data := tpch.Gen{SF: 0.001, Seed: 2}.Generate()
	var buf bytes.Buffer
	if err := writeCSV(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(bytes.NewReader(buf.Bytes()), tpch.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != data.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), data.NumRows())
	}
	for j := range data.Columns {
		for i := 0; i < data.NumRows(); i++ {
			a, b := data.Columns[j].Float64At(i), got.Columns[j].Float64At(i)
			if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
				t.Fatalf("col %d row %d: %v != %v", j, i, a, b)
			}
		}
	}
}

func TestReadChunking(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "a", Type: columnar.Int64})
	const rows = 2*chunkRows + 7
	var buf bytes.Buffer
	buf.WriteString("a\n")
	for i := 0; i < rows; i++ {
		buf.WriteString(strconv.Itoa(i) + "\n")
	}
	var sizes []int
	err := readCSV(&buf, schema, func(c *columnar.Chunk) error {
		if c.Columns[0].Int64s[0] != int64(chunkRows*len(sizes)) {
			t.Errorf("chunk %d starts at row %d", len(sizes), c.Columns[0].Int64s[0])
		}
		sizes = append(sizes, c.NumRows())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{chunkRows, chunkRows, 7}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("chunk sizes = %v, want %v", sizes, want)
	}
}

func TestReadErrors(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "a", Type: columnar.Int64},
		columnar.Field{Name: "b", Type: columnar.Float64},
	)
	cases := []struct {
		name, csv string
	}{
		{"bad header", "x,b\n1,2\n"},
		{"wrong arity", "a,b\n1\n"},
		{"bad int", "a,b\nfoo,2.5\n"},
		{"bad float", "a,b\n1,bar\n"},
		{"wrong column count", "a\n1\n"},
	}
	for _, c := range cases {
		err := readCSV(strings.NewReader(c.csv), schema, func(*columnar.Chunk) error { return nil })
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestHeaderOnlyAndBlankLines(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "a", Type: columnar.Int64})
	got, err := readAll(strings.NewReader("a\n"), schema)
	if err != nil || got.NumRows() != 0 {
		t.Errorf("header-only: %v rows, err %v", got.NumRows(), err)
	}
	got, err = readAll(strings.NewReader("a\n1\n\n2\n"), schema)
	if err != nil || got.NumRows() != 2 {
		t.Errorf("blank lines: %v rows, err %v", got.NumRows(), err)
	}
	// Missing trailing newline.
	got, err = readAll(strings.NewReader("a\n1\n2"), schema)
	if err != nil || got.NumRows() != 2 {
		t.Errorf("no trailing newline: %v rows, err %v", got.NumRows(), err)
	}
}

func TestConvertToLpq(t *testing.T) {
	data := tpch.Gen{SF: 0.001, Seed: 5}.Generate()
	var csvBuf bytes.Buffer
	writeCSV(&csvBuf, data)
	var lpqBuf bytes.Buffer
	rows, err := convertCSV(bytes.NewReader(csvBuf.Bytes()), &lpqBuf, tpch.Schema(),
		lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip})
	if err != nil {
		t.Fatal(err)
	}
	if rows != int64(data.NumRows()) {
		t.Errorf("converted %d rows, want %d", rows, data.NumRows())
	}
	// The lpq file is much smaller than the CSV (the paper: 705 GiB CSV vs
	// 151 GiB Parquet).
	if lpqBuf.Len() >= csvBuf.Len() {
		t.Errorf("lpq (%d) not smaller than CSV (%d)", lpqBuf.Len(), csvBuf.Len())
	}
	r, err := lpq.OpenReader(bytes.NewReader(lpqBuf.Bytes()), int64(lpqBuf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Column("l_shipdate").Int64s, data.Column("l_shipdate").Int64s) {
		t.Error("shipdates corrupted in conversion")
	}
}

// Property: any int64 matrix round-trips through CSV exactly.
func TestPropertyIntRoundTrip(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "a", Type: columnar.Int64},
		columnar.Field{Name: "b", Type: columnar.Int64},
	)
	f := func(as, bs []int64) bool {
		n := len(as)
		if len(bs) < n {
			n = len(bs)
		}
		c := columnar.NewChunk(schema, n)
		c.Columns[0].Int64s = append(c.Columns[0].Int64s, as[:n]...)
		c.Columns[1].Int64s = append(c.Columns[1].Int64s, bs[:n]...)
		var buf bytes.Buffer
		if err := writeCSV(&buf, c); err != nil {
			return false
		}
		got, err := readAll(bytes.NewReader(buf.Bytes()), schema)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Columns[0].Int64s, c.Columns[0].Int64s) &&
			reflect.DeepEqual(got.Columns[1].Int64s, c.Columns[1].Int64s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
