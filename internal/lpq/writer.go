package lpq

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"lambada/internal/columnar"
)

// WriterOptions configure file layout.
type WriterOptions struct {
	// RowGroupRows is the number of rows per row group (default 131072).
	RowGroupRows int
	// Compression is the heavy-weight scheme applied to every column chunk
	// after encoding (default None).
	Compression Compression
	// forceEncoding, if non-nil, overrides the per-column automatic
	// encoding choice (keyed by column index): the package's tests force
	// every encoder the writer's own choice would not pick.
	forceEncoding map[int]Encoding
	// PageRows is the page-index granularity (default 4096): column chunks
	// longer than PageRows are split into pages, each encoded and
	// compressed independently with per-page min/max statistics.
	PageRows int
}

// DefaultRowGroupRows is the default row-group size.
const DefaultRowGroupRows = 131072

// DefaultPageRows is the default page-index granularity.
const DefaultPageRows = 4096

// Writer writes an lpq file. Rows are buffered and flushed as row groups.
//
// Everything a Writer allocates is proportional to the rows it is given and
// reused from one row group, column and page to the next: the row-group
// buffer (grown on demand, emptied — not reallocated — by a flush), the
// profile pass's hash set, the encode and compress scratch, and one gzip
// compressor. Full row groups that arrive on an empty buffer are encoded
// straight from the caller's chunk.
type Writer struct {
	w      io.Writer
	opts   WriterOptions
	schema *columnar.Schema
	buf    *columnar.Chunk // pending rows of the current row group; nil until a Write has to buffer
	meta   FileMeta
	offset int64
	closed bool

	set    valueSet     // distinct values of the column being encoded
	raw    []byte       // one page, encoded, awaiting gzip; the footer
	stored byteSink     // one column chunk as it goes to w
	zw     *gzip.Writer // writes into stored; created by the first Gzip page
}

// byteSink is the io.Writer that appends to a byte slice.
type byteSink struct{ b []byte }

func (s *byteSink) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// NewWriter returns a writer emitting to w with the given schema.
func NewWriter(w io.Writer, schema *columnar.Schema, opts WriterOptions) *Writer {
	if opts.RowGroupRows <= 0 {
		opts.RowGroupRows = DefaultRowGroupRows
	}
	if opts.PageRows <= 0 {
		opts.PageRows = DefaultPageRows
	}
	return &Writer{w: w, opts: opts, schema: schema, meta: FileMeta{Schema: schema}}
}

// Write appends the chunk's rows, flushing full row groups. The chunk is
// the caller's again when Write returns.
func (w *Writer) Write(c *columnar.Chunk) error {
	return w.write(c, false)
}

// write appends c's rows. A row group that starts on an empty buffer and is
// complete — RowGroupRows rows, or whatever c has left when last says no
// rows follow — is encoded from a Slice view of c; other rows are copied
// into the row-group buffer until it fills.
func (w *Writer) write(c *columnar.Chunk, last bool) error {
	if w.closed {
		return fmt.Errorf("lpq: write after close")
	}
	if !c.Schema.Equal(w.schema) {
		return fmt.Errorf("lpq: chunk schema %q != file schema %q", c.Schema, w.schema)
	}
	if err := c.Validate(); err != nil {
		return err
	}
	n := c.NumRows()
	for row := 0; row < n; {
		pending := 0
		if w.buf != nil {
			pending = w.buf.NumRows()
		}
		take := min(n-row, w.opts.RowGroupRows-pending)
		if pending == 0 && (take == w.opts.RowGroupRows || last) {
			rg := c
			if take < n {
				rg = c.Slice(row, row+take)
			}
			if err := w.encodeRowGroup(rg); err != nil {
				return err
			}
		} else {
			w.buffer(c, row, row+take)
			if pending+take == w.opts.RowGroupRows {
				if err := w.flushRowGroup(); err != nil {
					return err
				}
			}
		}
		row += take
	}
	return nil
}

// buffer copies rows [lo, hi) of c into the row-group buffer. Capacity
// doubles up to RowGroupRows, so a file smaller than a row group never pays
// for a whole one and a long stream settles on a single buffer.
func (w *Writer) buffer(c *columnar.Chunk, lo, hi int) {
	if w.buf == nil {
		w.buf = columnar.NewChunk(w.schema, 0)
	}
	for j, col := range w.buf.Columns {
		if need := col.Len() + hi - lo; need > col.Cap() {
			col.Grow(min(max(need, 2*col.Cap()), w.opts.RowGroupRows) - col.Len())
		}
		col.AppendRange(c.Columns[j], lo, hi)
	}
}

// encodePage appends pv, encoded and then compressed as the file is, to the
// column chunk in w.stored, and returns its length before compression.
// profiled says w.set holds pv's distinct values already.
func (w *Writer) encodePage(pv *columnar.Vector, enc Encoding, profiled bool) (int, error) {
	var err error
	if w.opts.Compression != Gzip {
		before := len(w.stored.b)
		w.stored.b, err = appendEncoded(w.stored.b, pv, enc, &w.set, profiled)
		return len(w.stored.b) - before, err
	}
	if w.raw, err = appendEncoded(w.raw[:0], pv, enc, &w.set, profiled); err != nil {
		return 0, err
	}
	if w.zw == nil {
		w.zw = gzip.NewWriter(&w.stored)
	} else {
		w.zw.Reset(&w.stored)
	}
	if _, err := w.zw.Write(w.raw); err != nil {
		return 0, err
	}
	return len(w.raw), w.zw.Close()
}

// encodeColumnChunk encodes col into w.stored: as one blob or, when the row
// group is longer than PageRows, split at PageRows boundaries into pages
// that are encoded and compressed independently, so readers can fetch and
// decode pages on their own. All pages share one encoding. prof is col's
// profile, whose distinct values w.set still holds.
func (w *Writer) encodeColumnChunk(col *columnar.Vector, enc Encoding, prof *colProfile) (ColumnChunkMeta, error) {
	if !enc.encodes(col.Type) {
		// Unsupported forced combinations fall back to Plain.
		enc = Plain
	}
	n := col.Len()
	cc := ColumnChunkMeta{Encoding: enc, Compression: w.opts.Compression}
	paged := n > w.opts.PageRows
	pageRows := n
	if paged {
		pageRows = w.opts.PageRows
		cc.Pages = make([]PageMeta, 0, (n+pageRows-1)/pageRows)
	}
	w.stored.b = w.stored.b[:0]
	for lo := 0; lo < n; lo += pageRows {
		pv := col
		if paged {
			pv = col.Slice(lo, min(lo+pageRows, n))
		}
		relOff := len(w.stored.b)
		rawLen, err := w.encodePage(pv, enc, !paged)
		if err != nil {
			return cc, err
		}
		cc.UncompressedLen += int64(rawLen)
		if paged {
			cc.Pages = append(cc.Pages, PageMeta{
				NumRows:         int64(pv.Len()),
				RelOff:          int64(relOff),
				CompressedLen:   int64(len(w.stored.b) - relOff),
				UncompressedLen: int64(rawLen),
				Stats:           computeStats(pv),
			})
		}
	}
	cc.CompressedLen = int64(len(w.stored.b))
	cc.Stats = prof.stats
	cc.DistinctEst = prof.distinct
	// The columnar layer stores no nulls; the footer records that fact
	// exactly rather than leaving the count unknown.
	cc.NullCount = 0
	if paged && !pageStatsUseful(cc.Pages, cc.Stats) {
		for p := range cc.Pages {
			cc.Pages[p].Stats = Stats{}
		}
	}
	return cc, nil
}

// pageStatsUseful reports whether a paged chunk's per-page bounds can
// actually prune. Bounds only exclude a page when the page covers a
// narrower value range than the chunk — i.e. the column is clustered. For
// unclustered columns every page spans nearly the whole chunk range, the
// bounds never prune anything, and storing them only fattens the footer
// every reader downloads. Rule: keep page stats when the average page
// range is at most half the chunk range.
func pageStatsUseful(pages []PageMeta, chunk Stats) bool {
	if !chunk.HasMinMax {
		return false
	}
	width := chunk.MaxF - chunk.MinF
	var sum float64
	for _, pg := range pages {
		if !pg.Stats.HasMinMax {
			return false
		}
		sum += pg.Stats.MaxF - pg.Stats.MinF
	}
	return sum*2 <= width*float64(len(pages))
}

// flushRowGroup encodes the buffered rows as a row group and empties the
// buffer, keeping its capacity for the next one.
func (w *Writer) flushRowGroup() error {
	if w.buf == nil || w.buf.NumRows() == 0 {
		return nil
	}
	err := w.encodeRowGroup(w.buf)
	for _, col := range w.buf.Columns {
		col.Reset()
	}
	return err
}

// encodeRowGroup writes the rows of rg as the file's next row group. Each
// column is profiled in one pass that yields its encoding, statistics and
// distinct count (and, for Dict, the dictionary).
func (w *Writer) encodeRowGroup(rg *columnar.Chunk) error {
	n := rg.NumRows()
	if n == 0 {
		return nil
	}
	meta := RowGroupMeta{NumRows: int64(n), Columns: make([]ColumnChunkMeta, 0, len(rg.Columns))}
	for j, col := range rg.Columns {
		prof := w.set.profile(col)
		enc := prof.choose(col.Type, n)
		if forced, ok := w.opts.forceEncoding[j]; ok {
			enc = forced
		}
		cc, err := w.encodeColumnChunk(col, enc, &prof)
		if err != nil {
			return err
		}
		cc.Offset = w.offset
		if _, err := w.w.Write(w.stored.b); err != nil {
			return err
		}
		w.offset += cc.CompressedLen
		meta.Columns = append(meta.Columns, cc)
	}
	w.meta.RowGroups = append(w.meta.RowGroups, meta)
	w.meta.TotalRows += int64(n)
	return nil
}

// Close flushes the pending row group and writes the footer trailer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if err := w.flushRowGroup(); err != nil {
		return err
	}
	w.raw = appendFooter(w.raw[:0], &w.meta)
	footerLen := len(w.raw)
	w.raw = binary.LittleEndian.AppendUint32(w.raw, uint32(footerLen))
	w.raw = append(w.raw, Magic2[:]...)
	if _, err := w.w.Write(w.raw); err != nil {
		return err
	}
	w.offset += int64(len(w.raw))
	w.closed = true
	return nil
}

// Meta returns the accumulated metadata (valid after Close).
func (w *Writer) Meta() *FileMeta { return &w.meta }

// Size returns the bytes written so far (the final file size after Close).
func (w *Writer) Size() int64 { return w.offset }

// WriteFile serializes chunks into one in-memory lpq file.
func WriteFile(schema *columnar.Schema, opts WriterOptions, chunks ...*columnar.Chunk) ([]byte, error) {
	return AppendFile(nil, schema, opts, chunks...)
}

// AppendFile appends one lpq file holding the chunks' rows to dst and
// returns the extended slice. The last chunk's row groups are encoded in
// place, with no copy into the row-group buffer unless an earlier chunk left
// a partial group behind — so a one-chunk file costs the bytes it encodes to.
func AppendFile(dst []byte, schema *columnar.Schema, opts WriterOptions, chunks ...*columnar.Chunk) ([]byte, error) {
	out := byteSink{b: dst}
	w := NewWriter(&out, schema, opts)
	for i, c := range chunks {
		if err := w.write(c, i == len(chunks)-1); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out.b, nil
}
