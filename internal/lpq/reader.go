package lpq

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"lambada/internal/columnar"
)

// FooterGuess is how many trailing bytes the reader speculatively fetches;
// when the footer fits (the common case) opening costs a single ranged read,
// matching the paper's "loads this metadata with a single file read" — over
// S3 the guess is the open: the suffix read that also returns the size.
// Footers longer than the guess cost one extra ranged read of exactly the
// missing prefix, and that is what the guess is sized against: a small S3
// read is all first-byte latency (§4.3.1, Figure 7: tens of milliseconds,
// and a billed request), while the bytes of a guess that overshoots are
// counted but not priced and cost shaped transfer time only, ≈ 0.05 ms per
// 4 KiB. A footer is tens of bytes per column chunk and per page: 0.3–1.3 KB
// for a 13-column table in one or two unpaged row groups, 4.4 KB for the
// same table in row groups of four pages — which at 4 KiB took two reads to
// open. 8 KiB holds every footer the benchmark's tables have. An object
// shorter than the guess is fetched whole, once.
const FooterGuess = 8 * 1024

// Reader reads an lpq file from any io.ReaderAt — an in-memory buffer, an
// OS file, or an S3-backed random-access file.
type Reader struct {
	r    io.ReaderAt
	size int64
	meta *FileMeta
	// MetadataReads counts how many ReadAt calls opening the footer took.
	MetadataReads int
}

// OpenReader parses the footer and returns a reader: it reads the guessed
// tail, and OpenTail does the rest.
func OpenReader(r io.ReaderAt, size int64) (*Reader, error) {
	if size < 8 {
		return nil, fmt.Errorf("lpq: file too small (%d bytes)", size)
	}
	tail := make([]byte, min(int64(FooterGuess), size))
	if _, err := r.ReadAt(tail, size-int64(len(tail))); err != nil {
		return nil, fmt.Errorf("lpq: reading footer: %w", err)
	}
	rd, err := OpenTail(r, size, tail)
	if err != nil {
		return nil, err
	}
	rd.MetadataReads++
	return rd, nil
}

// OpenTail is OpenReader for a caller that already holds the file's last
// len(tail) bytes — an S3 open gets them with the object's size, in its one
// request. The tail is parsed and not kept: nothing the reader or its
// metadata holds aliases it.
func OpenTail(r io.ReaderAt, size int64, tail []byte) (*Reader, error) {
	guess := int64(len(tail))
	if guess < 8 || guess > size {
		return nil, fmt.Errorf("lpq: %d-byte tail of a %d-byte file holds no trailer", guess, size)
	}
	rd := &Reader{r: r, size: size}
	trailer := tail[len(tail)-8:]
	var v2 bool
	switch {
	case bytes.Equal(trailer[4:], Magic2[:]):
		v2 = true
	case bytes.Equal(trailer[4:], Magic[:]):
		v2 = false
	default:
		return nil, fmt.Errorf("lpq: bad magic %q", trailer[4:])
	}
	footerLen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if footerLen+8 > size {
		return nil, fmt.Errorf("lpq: footer length %d exceeds file size %d", footerLen, size)
	}
	var footer []byte
	if footerLen+8 <= guess {
		footer = tail[guess-8-footerLen : guess-8]
	} else {
		// The tail already holds the footer's suffix; fetch only the
		// missing prefix rather than re-billing bytes in hand.
		footer = make([]byte, footerLen)
		missing := footerLen + 8 - guess
		if _, err := r.ReadAt(footer[:missing], size-8-footerLen); err != nil {
			return nil, fmt.Errorf("lpq: reading long footer: %w", err)
		}
		copy(footer[missing:], tail[:guess-8])
		rd.MetadataReads = 1
	}
	meta, err := decodeFooter(footer, v2)
	if err != nil {
		return nil, err
	}
	if err := meta.check(size - 8 - footerLen); err != nil {
		return nil, err
	}
	rd.meta = meta
	return rd, nil
}

// Meta returns the file metadata.
func (r *Reader) Meta() *FileMeta { return r.meta }

// Schema returns the file schema.
func (r *Reader) Schema() *columnar.Schema { return r.meta.Schema }

// ReadColumn reads, decompresses and decodes one column chunk.
func (r *Reader) ReadColumn(rowGroup, col int) (*columnar.Vector, error) {
	v, _, err := r.readColumn(rowGroup, col, new(DecodeState), nil)
	return v, err
}

// readColumn is ReadColumn through the caller's decode state and read
// buffer (returned, possibly grown, for the next call).
func (r *Reader) readColumn(rowGroup, col int, st *DecodeState, buf []byte) (*columnar.Vector, []byte, error) {
	if rowGroup < 0 || rowGroup >= len(r.meta.RowGroups) {
		return nil, buf, fmt.Errorf("lpq: row group %d out of range", rowGroup)
	}
	rg := &r.meta.RowGroups[rowGroup]
	if col < 0 || col >= len(rg.Columns) {
		return nil, buf, fmt.Errorf("lpq: column %d out of range", col)
	}
	v := columnar.NewVector(r.meta.Schema.Fields[col].Type, int(rg.NumRows))
	buf, err := r.appendColumn(v, rg, col, st, buf)
	if err != nil {
		return nil, buf, err
	}
	return v, buf, nil
}

// appendColumn reads column chunk col of rg into buf (grown as needed and
// returned for the next call) and decodes it onto dst.
func (r *Reader) appendColumn(dst *columnar.Vector, rg *RowGroupMeta, col int, st *DecodeState, buf []byte) ([]byte, error) {
	cc := &rg.Columns[col]
	if int64(cap(buf)) < cc.CompressedLen {
		buf = make([]byte, cc.CompressedLen)
	}
	stored := buf[:cc.CompressedLen]
	if _, err := r.r.ReadAt(stored, cc.Offset); err != nil {
		return buf, fmt.Errorf("lpq: reading column chunk: %w", err)
	}
	return buf, st.appendColumnChunk(dst, stored, cc, rg.NumRows)
}

// DecodeState is what decoding carries from one column chunk or page to the
// next: the buffer gzip output is inflated into and the gzip reader itself,
// whose 32 KiB window and Huffman tables Reset keeps. The zero value is
// ready to use; one goroutine uses a state at a time. Decoded vectors never
// alias it — every decoder copies values out — so a state is free for the
// next page as soon as a call returns.
type DecodeState struct {
	raw []byte
	src bytes.Reader
	zr  *gzip.Reader
}

// maxInflated bounds the uncompressed length of n stored bytes: deflate
// expands at most 1032:1, and uncompressed blobs are stored as they are.
func (c Compression) maxInflated(n int64) int64 {
	if c != Gzip {
		return n
	}
	return 1032 * n
}

// inflate returns the uncompressed bytes of one stored blob; the result is
// valid until the next call.
func (s *DecodeState) inflate(stored []byte, comp Compression, uncompressedLen int64) ([]byte, error) {
	if comp != Gzip {
		if int64(len(stored)) != uncompressedLen {
			return nil, fmt.Errorf("lpq: uncompressed length %d != expected %d", len(stored), uncompressedLen)
		}
		return stored, nil
	}
	if uncompressedLen < 0 || uncompressedLen > comp.maxInflated(int64(len(stored))) {
		return nil, fmt.Errorf("lpq: %d stored bytes cannot inflate to %d", len(stored), uncompressedLen)
	}
	s.src.Reset(stored)
	if s.zr == nil {
		zr, err := gzip.NewReader(&s.src)
		if err != nil {
			return nil, fmt.Errorf("lpq: gzip: %w", err)
		}
		s.zr = zr
	} else if err := s.zr.Reset(&s.src); err != nil {
		return nil, fmt.Errorf("lpq: gzip: %w", err)
	}
	if int64(cap(s.raw)) < uncompressedLen {
		s.raw = make([]byte, uncompressedLen)
	}
	raw := s.raw[:uncompressedLen]
	if _, err := io.ReadFull(s.zr, raw); err != nil {
		return nil, fmt.Errorf("lpq: gunzip: %w", err)
	}
	var extra [1]byte
	if n, _ := s.zr.Read(extra[:]); n != 0 {
		return nil, fmt.Errorf("lpq: uncompressed data longer than expected %d", uncompressedLen)
	}
	if err := s.zr.Close(); err != nil {
		return nil, fmt.Errorf("lpq: gzip: %w", err)
	}
	return raw, nil
}

// DecodeColumnChunk decompresses and decodes the stored bytes of one column
// chunk of numRows values. It is exported so the S3 scan operator can
// download bytes itself (with its own concurrency strategy) and still reuse
// the decode path.
func (s *DecodeState) DecodeColumnChunk(stored []byte, t columnar.Type, cc ColumnChunkMeta, numRows int64) (*columnar.Vector, error) {
	v := columnar.NewVector(t, int(numRows))
	if err := s.appendColumnChunk(v, stored, &cc, numRows); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodePage decompresses and decodes one page of a paged column chunk.
// stored must hold exactly the page's compressed bytes
// (chunk bytes sliced at [pg.RelOff, pg.RelOff+pg.CompressedLen)).
func (s *DecodeState) DecodePage(stored []byte, t columnar.Type, cc ColumnChunkMeta, pg PageMeta) (*columnar.Vector, error) {
	v := columnar.NewVector(t, int(pg.NumRows))
	if err := s.appendBlob(v, stored, &cc, pg.UncompressedLen, pg.NumRows); err != nil {
		return nil, err
	}
	return v, nil
}

// appendBlob decodes one independently encoded and compressed blob — an
// unpaged column chunk or one page — onto dst.
func (s *DecodeState) appendBlob(dst *columnar.Vector, stored []byte, cc *ColumnChunkMeta, uncompressedLen, numRows int64) error {
	raw, err := s.inflate(stored, cc.Compression, uncompressedLen)
	if err != nil {
		return err
	}
	return decodeOnto(dst, raw, cc.Encoding, int(numRows))
}

// appendColumnChunk decodes a column chunk onto dst, page by page when it is
// paged: every value is written once, where it stays.
func (s *DecodeState) appendColumnChunk(dst *columnar.Vector, stored []byte, cc *ColumnChunkMeta, numRows int64) error {
	if len(cc.Pages) == 0 {
		return s.appendBlob(dst, stored, cc, cc.UncompressedLen, numRows)
	}
	var total int64
	for i := range cc.Pages {
		pg := &cc.Pages[i]
		if pg.RelOff+pg.CompressedLen > int64(len(stored)) {
			return fmt.Errorf("lpq: page %d spans [%d,%d) beyond chunk of %d bytes",
				i, pg.RelOff, pg.RelOff+pg.CompressedLen, len(stored))
		}
		if err := s.appendBlob(dst, stored[pg.RelOff:pg.RelOff+pg.CompressedLen], cc, pg.UncompressedLen, pg.NumRows); err != nil {
			return err
		}
		total += pg.NumRows
	}
	if total != numRows {
		return fmt.Errorf("lpq: page rows sum to %d, row group has %d", total, numRows)
	}
	return nil
}

// ReadRowGroup reads the given columns (by index; nil means all) of one row
// group into a chunk.
func (r *Reader) ReadRowGroup(rowGroup int, cols []int) (*columnar.Chunk, error) {
	if cols == nil {
		cols = make([]int, r.meta.Schema.Len())
		for i := range cols {
			cols[i] = i
		}
	}
	fields := make([]columnar.Field, len(cols))
	for i, c := range cols {
		fields[i] = r.meta.Schema.Fields[c]
	}
	out := &columnar.Chunk{Schema: columnar.NewSchema(fields...), Columns: make([]*columnar.Vector, len(cols))}
	var st DecodeState
	var buf []byte
	for i, c := range cols {
		var err error
		if out.Columns[i], buf, err = r.readColumn(rowGroup, c, &st, buf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadAll reads the whole file into one chunk (convenience for tests and
// small driver-side scans).
func (r *Reader) ReadAll() (*columnar.Chunk, error) {
	out := columnar.NewChunk(r.meta.Schema, int(r.meta.TotalRows))
	if err := r.AppendTo(out); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendTo decodes every row of the file onto dst, whose schema must equal
// the file's. Values are decoded where they stay — no per-row-group chunk in
// between — through one DecodeState and one read buffer, so a caller that
// sized dst for the rows to come (FileMeta.TotalRows) allocates nothing more
// per page. On error dst may hold part of the file's rows.
func (r *Reader) AppendTo(dst *columnar.Chunk) error {
	if !dst.Schema.Equal(r.meta.Schema) {
		return fmt.Errorf("lpq: file schema %q != destination schema %q", r.meta.Schema, dst.Schema)
	}
	var st DecodeState
	var buf []byte
	for g := range r.meta.RowGroups {
		rg := &r.meta.RowGroups[g]
		for col := range rg.Columns {
			var err error
			if buf, err = r.appendColumn(dst.Columns[col], rg, col, &st, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Predicate is a min/max-testable condition on one column, used for
// row-group and page pruning (selection push-down, §4.3.2 / Figure 11).
type Predicate struct {
	Column string
	// Min and Max bound the values selected by the predicate; a row group
	// whose [min,max] statistics do not intersect [Min,Max] is pruned.
	Min, Max float64
	// HasInt marks predicates whose literal bounds are exact integers.
	// Int64 columns are then pruned via MinInt/MaxInt: the float mirrors
	// are lossy above 2^53, so comparing them could wrongly prune (or keep)
	// groups of large keys.
	HasInt         bool
	MinInt, MaxInt int64
}

// Admits reports whether statistics st of a column of type t may contain a
// value selected by p. Missing statistics always admit.
func (p *Predicate) Admits(st Stats, t columnar.Type) bool {
	if !st.HasMinMax {
		return true
	}
	if p.HasInt && t == columnar.Int64 {
		return st.MinInt <= p.MaxInt && st.MaxInt >= p.MinInt
	}
	return st.MinF <= p.Max && st.MaxF >= p.Min
}

// PruneRowGroups returns the row-group indices that may contain matching
// rows, using footer statistics. Row groups without statistics are kept.
// A group whose predicate column is entirely null (v2 null counts) is
// pruned regardless of its min/max bounds: no row can satisfy a min/max
// predicate on a null value.
func PruneRowGroups(meta *FileMeta, preds []Predicate) []int {
	var keep []int
	for g := range meta.RowGroups {
		rg := &meta.RowGroups[g]
		match := true
		for _, p := range preds {
			ci := meta.Schema.Index(p.Column)
			if ci < 0 {
				continue
			}
			cc := &rg.Columns[ci]
			if cc.NullCount >= rg.NumRows && rg.NumRows > 0 {
				match = false
				break
			}
			if !p.Admits(cc.Stats, meta.Schema.Fields[ci].Type) {
				match = false
				break
			}
		}
		if match {
			keep = append(keep, g)
		}
	}
	return keep
}

// PrunePages evaluates preds against the page index of row group g and
// returns one keep-flag per page slot. The slot count is the maximum page
// count over the group's columns; an unpaged column contributes its chunk
// statistics to every slot. Pages the writer produces are row-aligned
// across columns (all split at the same PageRows boundaries), so slot i of
// every column covers the same rows.
func PrunePages(meta *FileMeta, g int, preds []Predicate) []bool {
	rg := &meta.RowGroups[g]
	npages := 1
	for c := range rg.Columns {
		if n := len(rg.Columns[c].Pages); n > npages {
			npages = n
		}
	}
	keep := make([]bool, npages)
	for i := range keep {
		keep[i] = true
	}
	for _, p := range preds {
		ci := meta.Schema.Index(p.Column)
		if ci < 0 {
			continue
		}
		t := meta.Schema.Fields[ci].Type
		cc := &rg.Columns[ci]
		if len(cc.Pages) == 0 {
			if !p.Admits(cc.Stats, t) {
				for i := range keep {
					keep[i] = false
				}
			}
			continue
		}
		for i := range cc.Pages {
			if i < len(keep) && !p.Admits(cc.Pages[i].Stats, t) {
				keep[i] = false
			}
		}
	}
	return keep
}

// EstimateRows bounds the number of rows of the file that may satisfy
// preds, at page granularity: pruned row groups contribute nothing, pruned
// pages of surviving groups contribute nothing, everything else counts in
// full. Null counts (v2 footers) cap a surviving group's contribution at
// NumRows minus the largest null count over its predicate columns — a null
// never satisfies a min/max predicate. With no predicates this is exactly
// TotalRows.
func EstimateRows(meta *FileMeta, preds []Predicate) int64 {
	if len(preds) == 0 {
		return meta.TotalRows
	}
	var est int64
	for _, g := range PruneRowGroups(meta, preds) {
		rg := &meta.RowGroups[g]
		avail := rg.NumRows
		for _, p := range preds {
			ci := meta.Schema.Index(p.Column)
			if ci < 0 {
				continue
			}
			if n := rg.NumRows - rg.Columns[ci].NullCount; n < avail {
				avail = n
			}
		}
		if avail < 0 {
			avail = 0
		}
		keep := PrunePages(meta, g, preds)
		if len(keep) == 1 {
			if keep[0] {
				est += avail
			}
			continue
		}
		// Page slots are row-aligned; take each slot's row count from the
		// first column that actually has that many pages.
		var rows []int64
		for c := range rg.Columns {
			if len(rg.Columns[c].Pages) == len(keep) {
				for _, pg := range rg.Columns[c].Pages {
					rows = append(rows, pg.NumRows)
				}
				break
			}
		}
		if rows == nil {
			est += avail
			continue
		}
		var kept int64
		for i, k := range keep {
			if k {
				kept += rows[i]
			}
		}
		est += min(kept, avail)
	}
	return est
}
