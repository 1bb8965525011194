package lpq

import (
	"encoding/binary"
	"fmt"
	"math"

	"lambada/internal/columnar"
)

// Magic2 is the file trailer magic. Its footer gives every column chunk a
// distinct-count estimate and an optional page index (min/max statistics at
// PageMeta granularity). The reader refuses any other trailer, the LPQ1
// layout without either included.
var Magic2 = [4]byte{'L', 'P', 'Q', '2'}

// Compression identifies the heavy-weight compression applied after
// encoding.
type Compression uint8

// Supported compressions.
const (
	None Compression = iota
	Gzip
)

// String names the compression.
func (c Compression) String() string {
	switch c {
	case None:
		return "NONE"
	case Gzip:
		return "GZIP"
	default:
		return fmt.Sprintf("Compression(%d)", uint8(c))
	}
}

// Stats hold the min/max statistics of one column chunk for numeric types.
type Stats struct {
	HasMinMax bool
	// MinInt/MaxInt are valid for Int64 columns, MinF/MaxF for Float64.
	MinInt, MaxInt int64
	MinF, MaxF     float64
}

// PageMeta describes one page of a paged column chunk: a fixed-row-count
// slice of the chunk, encoded and compressed independently so it can be
// fetched and decoded on its own. RelOff is the page's byte offset relative
// to the chunk's Offset.
type PageMeta struct {
	NumRows         int64
	RelOff          int64
	CompressedLen   int64
	UncompressedLen int64
	Stats           Stats
}

// ColumnChunkMeta locates one column chunk inside the file.
type ColumnChunkMeta struct {
	Offset          int64
	CompressedLen   int64
	UncompressedLen int64
	Encoding        Encoding
	Compression     Compression
	Stats           Stats
	// DistinctEst estimates the chunk's distinct value count (0 =
	// unknown). Exact for the row-group sizes the writer produces.
	DistinctEst int64
	// NullCount is the chunk's null-value count (0 = none or unknown). The
	// columnar layer has no null representation, so the writer always
	// emits 0, but readers honor counts written by other producers: an
	// all-null chunk prunes its row group for any predicate on the column,
	// and partial counts tighten row estimates.
	NullCount int64
	// Pages is the page index: the chunk split at WriterOptions.PageRows
	// boundaries, every page separately encoded (with the chunk's encoding)
	// and compressed. Nil for chunks of at most one page, stored as one
	// blob.
	Pages []PageMeta
}

// PageSpans returns the chunk's page list, synthesizing a single page
// covering the whole chunk when it is unpaged: page-level pruning and late
// materialization then degrade gracefully to row-group granularity.
func (cc *ColumnChunkMeta) PageSpans(numRows int64) []PageMeta {
	if len(cc.Pages) > 0 {
		return cc.Pages
	}
	return []PageMeta{{
		NumRows:         numRows,
		RelOff:          0,
		CompressedLen:   cc.CompressedLen,
		UncompressedLen: cc.UncompressedLen,
		Stats:           cc.Stats,
	}}
}

// tiling returns how the chunk of a numRows-row group is paged: its page
// count and the rows of every page but the last, which holds the rest — the
// only tiling a decoded page index can have (readPageIndex). An unpaged
// chunk is one page of numRows.
func (cc *ColumnChunkMeta) tiling(numRows int64) (pages int, rows int64) {
	if len(cc.Pages) == 0 {
		return 1, numRows
	}
	return len(cc.Pages), cc.Pages[0].NumRows
}

// RowGroupMeta describes one row group.
type RowGroupMeta struct {
	NumRows int64
	Columns []ColumnChunkMeta
}

// ByteRange returns the file range [lo, hi) covered by the row group's
// column chunks.
func (rg *RowGroupMeta) ByteRange() (lo, hi int64) {
	lo = math.MaxInt64
	for _, c := range rg.Columns {
		if c.Offset < lo {
			lo = c.Offset
		}
		if end := c.Offset + c.CompressedLen; end > hi {
			hi = end
		}
	}
	if lo == math.MaxInt64 {
		lo = 0
	}
	return lo, hi
}

// FileMeta is the parsed footer.
type FileMeta struct {
	Schema    *columnar.Schema
	RowGroups []RowGroupMeta
	TotalRows int64
}

// NumRowGroups returns the row-group count.
func (m *FileMeta) NumRowGroups() int { return len(m.RowGroups) }

// check holds a decoded footer to the file it came from, whose column data
// occupy the first dataLen bytes: every byte range lies inside the data,
// every length fits what its bytes can hold, the row counts add up, and the
// columns of a row group are paged at the same rows. A reader sizes its
// buffers and vectors by these numbers, so none may be larger than the file
// can back; a scan filters page slot i of one column and gathers slot i of
// the others by the same selection, so the slots must cover the same rows.
func (m *FileMeta) check(dataLen int64) error {
	var total, stored int64
	for g := range m.RowGroups {
		rg := &m.RowGroups[g]
		if rg.NumRows < 0 || rg.NumRows > math.MaxInt64-total {
			return fmt.Errorf("lpq: row group %d: implausible row count %d", g, rg.NumRows)
		}
		total += rg.NumRows
		for c := range rg.Columns {
			cc := &rg.Columns[c]
			if n, rows := cc.tiling(rg.NumRows); c > 0 {
				if n0, rows0 := rg.Columns[0].tiling(rg.NumRows); n != n0 || rows != rows0 {
					return fmt.Errorf("lpq: row group %d column %d is paged in %d pages of %d rows, column 0 in %d of %d",
						g, c, n, rows, n0, rows0)
				}
			}
			// Chunks do not overlap, so together they fit the data too.
			if cc.CompressedLen < 0 || cc.CompressedLen > dataLen-stored || cc.Offset < 0 || cc.Offset > dataLen-cc.CompressedLen {
				return fmt.Errorf("lpq: row group %d column %d: chunk [%d,+%d) outside the file's %d data bytes",
					g, c, cc.Offset, cc.CompressedLen, dataLen)
			}
			stored += cc.CompressedLen
			t := m.Schema.Fields[c].Type
			pages := cc.Pages
			if len(pages) == 0 {
				pages = []PageMeta{{NumRows: rg.NumRows, CompressedLen: cc.CompressedLen, UncompressedLen: cc.UncompressedLen}}
			}
			for i, pg := range pages {
				switch {
				case pg.RelOff < 0 || pg.CompressedLen < 0 || pg.CompressedLen > cc.CompressedLen-pg.RelOff:
					return fmt.Errorf("lpq: row group %d column %d page %d: [%d,+%d) outside its chunk of %d bytes",
						g, c, i, pg.RelOff, pg.CompressedLen, cc.CompressedLen)
				case pg.UncompressedLen < 0 || pg.UncompressedLen > cc.Compression.maxInflated(pg.CompressedLen):
					return fmt.Errorf("lpq: row group %d column %d page %d: %d stored bytes cannot inflate to %d",
						g, c, i, pg.CompressedLen, pg.UncompressedLen)
				case pg.NumRows > cc.Encoding.maxRows(t, pg.UncompressedLen):
					return fmt.Errorf("lpq: row group %d column %d page %d: %d rows in %d %s bytes",
						g, c, i, pg.NumRows, pg.UncompressedLen, cc.Encoding)
				}
			}
		}
	}
	if total != m.TotalRows {
		return fmt.Errorf("lpq: row groups hold %d rows, footer says %d", total, m.TotalRows)
	}
	return nil
}

// putStats appends a stats block: a presence flag byte, then 32 bytes of
// int and float min/max when present.
func putStats(out []byte, st Stats) []byte {
	if !st.HasMinMax {
		return append(out, 0)
	}
	out = append(out, 1)
	var tmp [16]byte
	binary.LittleEndian.PutUint64(tmp[0:], uint64(st.MinInt))
	binary.LittleEndian.PutUint64(tmp[8:], uint64(st.MaxInt))
	out = append(out, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[0:], math.Float64bits(st.MinF))
	binary.LittleEndian.PutUint64(tmp[8:], math.Float64bits(st.MaxF))
	return append(out, tmp[:]...)
}

// readStats parses a stats block written by putStats.
func readStats(r *byteReader) (Stats, error) {
	var st Stats
	hs, err := r.byte()
	if err != nil {
		return st, err
	}
	if hs != 1 {
		return st, nil
	}
	b, err := r.bytes(32)
	if err != nil {
		return st, err
	}
	st.HasMinMax = true
	st.MinInt = int64(binary.LittleEndian.Uint64(b[0:]))
	st.MaxInt = int64(binary.LittleEndian.Uint64(b[8:]))
	st.MinF = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
	st.MaxF = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
	return st, nil
}

// putPageIndex appends a column chunk's compact page index. The footer
// is pure overhead every reader must download, so the index stores only
// what cannot be derived: per-page byte lengths (offsets are cumulative —
// the writer lays pages out contiguously) and, when present, typed bounds
// (zigzag varints for Int64/Bool, raw float64 bits for Float64 — the other
// mirror is reconstructed on decode exactly as computeStats would fill
// it). Page row counts collapse to one uvarint: every page holds pageRows
// rows except the last, which holds the row group's remainder. Bounds are
// all-or-none per chunk (one flag byte), matching what the writer emits.
func putPageIndex(out []byte, pages []PageMeta, t columnar.Type) []byte {
	out = putUvarint(out, uint64(len(pages)))
	if len(pages) == 0 {
		return out
	}
	out = putUvarint(out, uint64(pages[0].NumRows))
	for _, pg := range pages {
		out = putUvarint(out, uint64(pg.CompressedLen))
		out = putUvarint(out, uint64(pg.UncompressedLen))
	}
	hasStats := true
	for _, pg := range pages {
		if !pg.Stats.HasMinMax {
			hasStats = false
			break
		}
	}
	if !hasStats {
		return append(out, 0)
	}
	out = append(out, 1)
	for _, pg := range pages {
		if t == columnar.Float64 {
			var tmp [16]byte
			binary.LittleEndian.PutUint64(tmp[0:], math.Float64bits(pg.Stats.MinF))
			binary.LittleEndian.PutUint64(tmp[8:], math.Float64bits(pg.Stats.MaxF))
			out = append(out, tmp[:]...)
		} else {
			out = putUvarint(out, zigzag(pg.Stats.MinInt))
			out = putUvarint(out, zigzag(pg.Stats.MaxInt))
		}
	}
	return out
}

// readPageIndex parses a page index written by putPageIndex, reconstructing
// offsets, row counts, and stat mirrors.
func readPageIndex(r *byteReader, t columnar.Type, groupRows int64) ([]PageMeta, error) {
	np, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if np == 0 {
		return nil, nil
	}
	// A page takes at least two bytes of index (its two lengths).
	if np > uint64(r.remaining())/2 {
		return nil, fmt.Errorf("lpq: implausible page count %d", np)
	}
	pageRows, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if pageRows == 0 || pageRows > math.MaxInt64/np || int64(np-1)*int64(pageRows) >= groupRows || int64(np)*int64(pageRows) < groupRows {
		return nil, fmt.Errorf("lpq: %d pages of %d rows cannot tile a %d-row group", np, pageRows, groupRows)
	}
	pages := make([]PageMeta, np)
	var off int64
	for p := range pages {
		pcl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		pul, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		pages[p] = PageMeta{
			NumRows:         int64(pageRows),
			RelOff:          off,
			CompressedLen:   int64(pcl),
			UncompressedLen: int64(pul),
		}
		off += int64(pcl)
	}
	pages[np-1].NumRows = groupRows - int64(np-1)*int64(pageRows)
	hs, err := r.byte()
	if err != nil {
		return nil, err
	}
	if hs == 0 {
		return pages, nil
	}
	for p := range pages {
		st := &pages[p].Stats
		st.HasMinMax = true
		if t == columnar.Float64 {
			b, err := r.bytes(16)
			if err != nil {
				return nil, err
			}
			st.MinF = math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
			st.MaxF = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
			st.MinInt, st.MaxInt = int64(st.MinF), int64(st.MaxF)
		} else {
			mn, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			mx, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			st.MinInt, st.MaxInt = unzigzag(mn), unzigzag(mx)
			st.MinF, st.MaxF = float64(st.MinInt), float64(st.MaxInt)
		}
	}
	return pages, nil
}

// appendFooter appends the serialized footer body (without length/magic
// trailer) to out.
func appendFooter(out []byte, m *FileMeta) []byte {
	out = putUvarint(out, uint64(m.Schema.Len()))
	for _, f := range m.Schema.Fields {
		out = putUvarint(out, uint64(len(f.Name)))
		out = append(out, f.Name...)
		out = append(out, byte(f.Type))
	}
	out = putUvarint(out, uint64(len(m.RowGroups)))
	for _, rg := range m.RowGroups {
		out = putUvarint(out, uint64(rg.NumRows))
		for ci, c := range rg.Columns {
			out = putUvarint(out, uint64(c.Offset))
			out = putUvarint(out, uint64(c.CompressedLen))
			out = putUvarint(out, uint64(c.UncompressedLen))
			out = append(out, byte(c.Encoding), byte(c.Compression))
			out = putStats(out, c.Stats)
			out = putUvarint(out, uint64(c.DistinctEst))
			out = putUvarint(out, uint64(c.NullCount))
			out = putPageIndex(out, c.Pages, m.Schema.Fields[ci].Type)
		}
	}
	out = putUvarint(out, uint64(m.TotalRows))
	return out
}

// decodeFooter parses a footer body.
func decodeFooter(data []byte) (*FileMeta, error) {
	r := &byteReader{b: data}
	nf, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// A field takes at least two bytes (name length, type), a row group at
	// least one: counts beyond what the footer has bytes for are corrupt.
	if nf == 0 || nf > uint64(r.remaining())/2 {
		return nil, fmt.Errorf("lpq: implausible field count %d", nf)
	}
	schema := &columnar.Schema{Fields: make([]columnar.Field, 0, nf)}
	for i := uint64(0); i < nf; i++ {
		nameLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		name, err := r.bytes(int(nameLen))
		if err != nil {
			return nil, err
		}
		tb, err := r.byte()
		if err != nil {
			return nil, err
		}
		if tb > byte(columnar.Bool) {
			return nil, fmt.Errorf("lpq: unknown type byte %d", tb)
		}
		schema.Fields = append(schema.Fields, columnar.Field{Name: string(name), Type: columnar.Type(tb)})
	}
	nrg, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nrg > uint64(r.remaining()) {
		return nil, fmt.Errorf("lpq: implausible row-group count %d", nrg)
	}
	m := &FileMeta{Schema: schema, RowGroups: make([]RowGroupMeta, 0, nrg)}
	for g := uint64(0); g < nrg; g++ {
		rows, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		rg := RowGroupMeta{NumRows: int64(rows), Columns: make([]ColumnChunkMeta, 0, schema.Len())}
		for c := 0; c < schema.Len(); c++ {
			var cc ColumnChunkMeta
			off, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			clen, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			ulen, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			eb, err := r.byte()
			if err != nil {
				return nil, err
			}
			cb, err := r.byte()
			if err != nil {
				return nil, err
			}
			cc.Offset, cc.CompressedLen, cc.UncompressedLen = int64(off), int64(clen), int64(ulen)
			cc.Encoding, cc.Compression = Encoding(eb), Compression(cb)
			if cc.Stats, err = readStats(r); err != nil {
				return nil, err
			}
			de, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			cc.DistinctEst = int64(de)
			nc, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			cc.NullCount = int64(nc)
			if cc.Pages, err = readPageIndex(r, schema.Fields[c].Type, rg.NumRows); err != nil {
				return nil, err
			}
			rg.Columns = append(rg.Columns, cc)
		}
		m.RowGroups = append(m.RowGroups, rg)
	}
	total, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	m.TotalRows = int64(total)
	if r.remaining() != 0 {
		return nil, fmt.Errorf("lpq: %d trailing footer bytes", r.remaining())
	}
	return m, nil
}

// computeStats derives min/max statistics for a vector — the page-level
// pass; whole column chunks get theirs from the writer's profile pass. NaNs
// are left out of the bounds, as they are there: a NaN bound admits nothing,
// so it would prune a page that holds matching rows. An all-NaN vector has
// no bounds.
func computeStats(v *columnar.Vector) Stats {
	var s Stats
	switch v.Type {
	case columnar.Int64:
		if len(v.Int64s) == 0 {
			return s
		}
		s.HasMinMax = true
		s.MinInt, s.MaxInt = v.Int64s[0], v.Int64s[0]
		for _, x := range v.Int64s {
			if x < s.MinInt {
				s.MinInt = x
			}
			if x > s.MaxInt {
				s.MaxInt = x
			}
		}
		s.MinF, s.MaxF = float64(s.MinInt), float64(s.MaxInt)
	case columnar.Float64:
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range v.Float64s {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		s = floatStats(lo, hi)
	}
	return s
}

// floatStats are the bounds of a Float64 column whose non-NaN values lie in
// [lo, hi], found by a pass that starts from lo = +Inf, hi = -Inf: lo > hi
// after it means the column held no such value, and gets no bounds.
func floatStats(lo, hi float64) Stats {
	if lo > hi {
		return Stats{}
	}
	return Stats{HasMinMax: true, MinInt: int64(lo), MaxInt: int64(hi), MinF: lo, MaxF: hi}
}
