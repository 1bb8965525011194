package lpq

import (
	"bytes"
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/tpch"
)

func benchData(b *testing.B) *columnar.Chunk {
	b.Helper()
	return tpch.Gen{SF: 0.01, Seed: 1}.Generate() // ~60k rows × 13 cols
}

func BenchmarkWritePlain(b *testing.B) {
	data := benchData(b)
	b.SetBytes(data.ByteSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WriteFile(tpch.Schema(), WriterOptions{}, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteGzip(b *testing.B) {
	data := benchData(b)
	b.SetBytes(data.ByteSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WriteFile(tpch.Schema(), WriterOptions{Compression: Gzip}, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadAll(b *testing.B) {
	data := benchData(b)
	raw, err := WriteFile(tpch.Schema(), WriterOptions{RowGroupRows: 16384}, data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(data.ByteSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenReader(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDelta(b *testing.B) {
	v := columnar.NewVector(columnar.Int64, 1<<16)
	for i := 0; i < 1<<16; i++ {
		v.AppendInt64(int64(i) * 3)
	}
	b.SetBytes(int64(v.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := appendEncoded(nil, v, Delta, new(valueSet), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeDelta(b *testing.B) {
	v := columnar.NewVector(columnar.Int64, 1<<16)
	for i := 0; i < 1<<16; i++ {
		v.AppendInt64(int64(i) * 3)
	}
	raw, _ := appendEncoded(nil, v, Delta, new(valueSet), false)
	b.SetBytes(int64(v.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeOnto(columnar.NewVector(columnar.Int64, v.Len()), raw, Delta, v.Len(), new(dictScratch)); err != nil {
			b.Fatal(err)
		}
	}
}
