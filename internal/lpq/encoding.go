// Package lpq implements "Lambada Parquet", a from-scratch columnar file
// format with the properties the paper's scan operator exploits (§4.3.2):
//
//   - data stored in row groups of column chunks, each independently
//     readable with one ranged request;
//   - a footer holding the schema, per-column-chunk offsets, and optional
//     min/max statistics enabling row-group pruning on pushed-down
//     predicates;
//   - light-weight encodings (run-length, delta, dictionary) and an
//     optional heavy-weight compression scheme (GZIP) per column chunk.
//
// The layout is:
//
//	[column chunk bytes ...]* [footer] [footerLen uint32] [magic "LPQ2"]
//
// All integers in the footer are unsigned varints; values are little-endian.
package lpq

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"lambada/internal/columnar"
)

// Encoding identifies how a column chunk's values are serialized.
type Encoding uint8

// Supported encodings.
const (
	Plain Encoding = iota // fixed-width values
	RLE                   // (run length, value) pairs
	Delta                 // zigzag-varint deltas, for sorted or smooth ints
	Dict                  // dictionary + varint indices
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case Plain:
		return "PLAIN"
	case RLE:
		return "RLE"
	case Delta:
		return "DELTA"
	case Dict:
		return "DICT"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func putUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

type byteReader struct {
	b   []byte
	pos int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("lpq: corrupt varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(r.b)-r.pos {
		return nil, fmt.Errorf("lpq: truncated data: need %d bytes at %d, have %d", n, r.pos, len(r.b))
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *byteReader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *byteReader) remaining() int { return len(r.b) - r.pos }

// maxRows bounds the values n encoded bytes can hold: Plain is fixed-width,
// Delta and Dict spend at least a byte a value. RLE has no bound — a run of
// any length is two varints.
func (e Encoding) maxRows(t columnar.Type, n int64) int64 {
	switch {
	case e == RLE:
		return math.MaxInt64
	case e == Plain && t != columnar.Bool:
		return n / 8
	default:
		return n
	}
}

// encodes reports whether the encoding can serialize columns of type t.
func (e Encoding) encodes(t columnar.Type) bool {
	switch e {
	case Plain:
		return true
	case RLE:
		return t != columnar.Float64
	case Delta:
		return t == columnar.Int64
	case Dict:
		return t != columnar.Bool
	default:
		return false
	}
}

// check is encodes as an error.
func (e Encoding) check(t columnar.Type) error {
	switch {
	case e.encodes(t):
		return nil
	case e > Dict:
		return fmt.Errorf("lpq: unknown encoding %v", e)
	default:
		return fmt.Errorf("lpq: %v unsupported for %v", e, t)
	}
}

// appendEncoded appends v's serialization under enc to dst. Dict reads the
// column's distinct values from set; profiled says the caller's profile pass
// over this very vector has just filled it, otherwise it is filled here.
func appendEncoded(dst []byte, v *columnar.Vector, enc Encoding, set *valueSet, profiled bool) ([]byte, error) {
	if err := enc.check(v.Type); err != nil {
		return nil, err
	}
	switch enc {
	case RLE:
		return appendRLE(dst, v), nil
	case Delta:
		return appendDelta(dst, v), nil
	case Dict:
		if !profiled {
			set.profile(v)
		}
		return set.appendDict(dst, v), nil
	default:
		return appendPlain(dst, v), nil
	}
}

// decodeOnto appends the n values serialized in data to dst; a dictionary
// page's dictionary is decoded into dict.
func decodeOnto(dst *columnar.Vector, data []byte, enc Encoding, n int, dict *dictScratch) error {
	if err := enc.check(dst.Type); err != nil {
		return err
	}
	switch enc {
	case RLE:
		return decodeRLE(dst, data, n)
	case Delta:
		return decodeDelta(dst, data, n)
	case Dict:
		return decodeDict(dst, data, n, dict)
	default:
		return decodePlain(dst, data, n)
	}
}

func appendPlain(dst []byte, v *columnar.Vector) []byte {
	off := len(dst)
	switch v.Type {
	case columnar.Int64:
		dst = slices.Grow(dst, 8*len(v.Int64s))[:off+8*len(v.Int64s)]
		for i, x := range v.Int64s {
			binary.LittleEndian.PutUint64(dst[off+8*i:], uint64(x))
		}
	case columnar.Float64:
		dst = slices.Grow(dst, 8*len(v.Float64s))[:off+8*len(v.Float64s)]
		for i, x := range v.Float64s {
			binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(x))
		}
	default:
		dst = slices.Grow(dst, len(v.Bools))[:off+len(v.Bools)]
		for i, x := range v.Bools {
			dst[off+i] = 0
			if x {
				dst[off+i] = 1
			}
		}
	}
	return dst
}

// decodePlain bulk-decodes fixed-width values: one length check up front,
// then direct index writes into the grown value slice (no per-value append
// bookkeeping — this is the hottest decode loop in the system).
func decodePlain(dst *columnar.Vector, data []byte, n int) error {
	switch dst.Type {
	case columnar.Int64:
		if len(data) < 8*n {
			return fmt.Errorf("lpq: plain int64 column truncated: %d < %d", len(data), 8*n)
		}
		off := len(dst.Int64s)
		dst.Int64s = slices.Grow(dst.Int64s, n)[:off+n]
		for i, out := 0, dst.Int64s[off:]; i < n; i++ {
			out[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
	case columnar.Float64:
		if len(data) < 8*n {
			return fmt.Errorf("lpq: plain float64 column truncated")
		}
		off := len(dst.Float64s)
		dst.Float64s = slices.Grow(dst.Float64s, n)[:off+n]
		for i, out := 0, dst.Float64s[off:]; i < n; i++ {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
	default:
		if len(data) < n {
			return fmt.Errorf("lpq: plain bool column truncated")
		}
		off := len(dst.Bools)
		dst.Bools = slices.Grow(dst.Bools, n)[:off+n]
		for i, out := 0, dst.Bools[off:]; i < n; i++ {
			out[i] = data[i] != 0
		}
	}
	return nil
}

func appendRLE(dst []byte, v *columnar.Vector) []byte {
	if v.Type == columnar.Int64 {
		for i := 0; i < len(v.Int64s); {
			j := i + 1
			for j < len(v.Int64s) && v.Int64s[j] == v.Int64s[i] {
				j++
			}
			dst = putUvarint(dst, uint64(j-i))
			dst = putUvarint(dst, zigzag(v.Int64s[i]))
			i = j
		}
		return dst
	}
	for i := 0; i < len(v.Bools); {
		j := i + 1
		for j < len(v.Bools) && v.Bools[j] == v.Bools[i] {
			j++
		}
		dst = putUvarint(dst, uint64(j-i))
		if v.Bools[i] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		i = j
	}
	return dst
}

func decodeRLE(dst *columnar.Vector, data []byte, n int) error {
	r := &byteReader{b: data}
	for got := 0; got < n; {
		run, err := r.uvarint()
		if err != nil {
			return err
		}
		if run == 0 || run > uint64(n-got) {
			return fmt.Errorf("lpq: RLE run %d overflows %d values", run, n)
		}
		if dst.Type == columnar.Int64 {
			u, err := r.uvarint()
			if err != nil {
				return err
			}
			x := unzigzag(u)
			for k := uint64(0); k < run; k++ {
				dst.Int64s = append(dst.Int64s, x)
			}
		} else {
			b, err := r.byte()
			if err != nil {
				return err
			}
			for k := uint64(0); k < run; k++ {
				dst.Bools = append(dst.Bools, b != 0)
			}
		}
		got += int(run)
	}
	return nil
}

func appendDelta(dst []byte, v *columnar.Vector) []byte {
	prev := int64(0)
	for _, x := range v.Int64s {
		dst = putUvarint(dst, zigzag(x-prev))
		prev = x
	}
	return dst
}

func decodeDelta(dst *columnar.Vector, data []byte, n int) error {
	r := &byteReader{b: data}
	prev := int64(0)
	for i := 0; i < n; i++ {
		u, err := r.uvarint()
		if err != nil {
			return err
		}
		prev += unzigzag(u)
		dst.Int64s = append(dst.Int64s, prev)
	}
	return nil
}

// dictScratch holds the dictionary of the page being decoded, reused from
// page to page: values are copied out of it, so no vector aliases it.
type dictScratch struct {
	ints   []int64
	floats []float64
}

func decodeDict(dst *columnar.Vector, data []byte, n int, scratch *dictScratch) error {
	r := &byteReader{b: data}
	size, err := r.uvarint()
	if err != nil {
		return err
	}
	// An entry takes at least a byte (a varint) for Int64 and exactly eight
	// for Float64: a larger dictionary than the page has bytes for is corrupt.
	entry := uint64(1)
	if dst.Type == columnar.Float64 {
		entry = 8
	}
	if size > uint64(r.remaining())/entry {
		return fmt.Errorf("lpq: dictionary of %d entries in %d bytes", size, r.remaining())
	}
	if dst.Type == columnar.Int64 {
		dict := slices.Grow(scratch.ints[:0], int(size))[:size]
		scratch.ints = dict
		for i := range dict {
			u, err := r.uvarint()
			if err != nil {
				return err
			}
			dict[i] = unzigzag(u)
		}
		for i := 0; i < n; i++ {
			idx, err := r.uvarint()
			if err != nil {
				return err
			}
			if idx >= size {
				return fmt.Errorf("lpq: dict index %d out of range %d", idx, size)
			}
			dst.Int64s = append(dst.Int64s, dict[idx])
		}
		return nil
	}
	dict := slices.Grow(scratch.floats[:0], int(size))[:size]
	scratch.floats = dict
	for i := range dict {
		b, err := r.bytes(8)
		if err != nil {
			return err
		}
		dict[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	for i := 0; i < n; i++ {
		idx, err := r.uvarint()
		if err != nil {
			return err
		}
		if idx >= size {
			return fmt.Errorf("lpq: dict index %d out of range %d", idx, size)
		}
		dst.Float64s = append(dst.Float64s, dict[idx])
	}
	return nil
}
