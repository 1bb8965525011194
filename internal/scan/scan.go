// Package scan implements Lambada's S3-based Parquet scan operator
// (§4.3.2, Figure 8). It exploits concurrency at five levels — the four the
// paper identifies, in the priority order the paper prescribes, plus a
// file-level worker pool on top. Levels 1, 2 and 4 are requests: 2 and 4 keep
// theirs in flight through the S3 client's request window (s3.Client.Overlap),
// a model of time that is the same on both clocks and starts no goroutine,
// and 1's chunks follow one another on the lane that carries their read.
// Levels 3 and 5 are host threads — real CPU overlap — and are what a
// deterministic deployment turns off:
//
//	(5) multiple lpq files scanned concurrently by a bounded worker pool
//	    (Config.ParallelFiles), chunks delivered in file order through
//	    per-file channels so the yield order matches the serial scan;
//	(4) the footers of all files opened in one request window ahead of the
//	    first file's data (OpenAll);
//	(3) up to two row groups downloaded asynchronously (double buffering),
//	    overlapping download with decompression of the previous group;
//	(2) the coalesced column ranges of one read issued in one request window
//	    (s3fs.File.ReadRanges);
//	(1) multiple chunked requests per read, only as a fallback, since extra
//	    requests cost money (Figure 7).
//
// The operator implements engine.Source, so optimized plans push selections
// (as min/max prune predicates) and projections into it.
package scan

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/s3fs"
)

// Config tunes the operator.
type Config struct {
	// ChunkBytes is the per-request range size (level 1). Default 16 MiB.
	ChunkBytes int64
	// Conns is the number of concurrent connections modeled per transfer.
	Conns int
	// DoubleBuffer enables row-group prefetch (level 3). The paper
	// disables it on workers with too little main memory.
	DoubleBuffer bool
	// ParallelColumns and MetaPrefetch have no effect: levels 2 and 4 ride the
	// client's request window, which costs no request, no byte and no thread,
	// so there is nothing to switch off. Declared only because the frozen
	// bench/replay.go assigns them; see ROADMAP, "The next [benchmark] PR".
	ParallelColumns bool
	MetaPrefetch    bool
	// ParallelFiles bounds how many files are scanned concurrently
	// (level 5). 0 or 1 scans serially; DefaultConfig uses GOMAXPROCS.
	// Chunk delivery order is unaffected: chunks surface in file order,
	// row groups in order within each file, exactly as a serial scan.
	ParallelFiles int
	// CoalesceGapBytes is the largest hole merged into one GET when
	// fetching multiple chunk/page ranges (0 = s3fs.DefaultCoalesceGap,
	// negative = no coalescing — one GET per range, the pre-coalescing
	// request pattern, kept for ablations).
	CoalesceGapBytes int64
	// DisableLateMaterialize makes ScanFiltered fetch every projected
	// column of every surviving row group before filtering (the
	// pre-late-materialization read pattern, kept for ablations). Results
	// are byte-identical either way.
	DisableLateMaterialize bool
}

// DefaultConfig mirrors the paper's operator — all levels enabled, 16 MiB
// chunks, four connections — plus file-level parallelism across all CPUs.
func DefaultConfig() Config {
	return Config{
		ChunkBytes:    s3fs.DefaultChunkBytes,
		Conns:         4,
		DoubleBuffer:  true,
		ParallelFiles: runtime.GOMAXPROCS(0),
	}
}

// FileRef names one S3 object holding an lpq file.
type FileRef struct {
	Bucket string
	Key    string
}

// Source scans a list of lpq files from S3. It implements engine.Source.
type Source struct {
	Client *s3.Client
	Files  []FileRef
	Cfg    Config
	// Footers, when set, is the table a resident driver session keeps of the
	// files it has opened: open asks it before it asks S3, and tells it what
	// S3 answered. Nil — a worker's source — opens every file itself.
	Footers *Footers

	mu    sync.Mutex
	opens map[string]*openState
	// handles lists every file handle data is read through, and openGets /
	// openBytes what the opens themselves were billed, for summing billed
	// request/byte counters without touching the opens map.
	handles   []*s3fs.File
	openGets  int64
	openBytes int64

	// idle holds the decode states no goroutine is using. It is a plain
	// free list, not a sync.Pool: the states die with the Source instead of
	// lingering in the runtime's pool registry for two GC cycles after it.
	idle []*lpq.DecodeState

	// Stats.
	rowGroupsRead   int64
	rowGroupsPruned int64
	filesAllPruned  int64
	pagesRead       int64
	pagesPruned     int64
	pagesFiltered   int64
}

// openState is the singleflight slot of one file's footer fetch: however
// many goroutines race to open a file (level-5 file workers, concurrent
// scans of one source), the footer is fetched exactly once and everyone
// shares the result.
type openState struct {
	once sync.Once
	meta *lpq.FileMeta
	h    *s3fs.File
	err  error
}

// footer is what opening a file learns: its size and its decoded metadata,
// both immutable. A handle is not part of it — a handle is bound to one
// client, and s3fs.NewFile makes one from the size for free.
type footer struct {
	size int64
	meta *lpq.FileMeta
}

// Footers is a table of opened files' footers by object, shared by the
// sources of one resident session so that a file is opened once per session
// and not once per query. Its contract is the result cache's: the objects are
// immutable until the owner says otherwise by calling Drop. It never makes
// one source wait for another's open — two that miss together both read, and
// store the same thing — because under DES a process blocked on a Go lock
// that a parked process holds stalls the kernel. Safe for concurrent use.
type Footers struct {
	mu sync.Mutex
	// gen counts Drops: an open that began before one must not store after
	// it, or the table would keep a footer of the overwritten object.
	gen   uint64
	known map[string]footer
}

// NewFooters returns an empty table.
func NewFooters() *Footers { return &Footers{known: map[string]footer{}} }

// Drop forgets every footer.
func (t *Footers) Drop() {
	t.mu.Lock()
	t.gen++
	t.known = map[string]footer{}
	t.mu.Unlock()
}

// lookup returns id's footer if known, and the generation a store of what
// the caller reads instead must present.
func (t *Footers) lookup(id string) (footer, uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ft, ok := t.known[id]
	return ft, t.gen, ok
}

// store records id's footer unless the table was dropped since gen.
func (t *Footers) store(id string, gen uint64, ft footer) {
	t.mu.Lock()
	if gen == t.gen {
		t.known[id] = ft
	}
	t.mu.Unlock()
}

// New returns a source over files.
func New(client *s3.Client, cfg Config, files ...FileRef) *Source {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = s3fs.DefaultChunkBytes
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	return &Source{
		Client: client,
		Files:  files,
		Cfg:    cfg,
		opens:  make(map[string]*openState),
	}
}

// Stats reports scan counters.
type Stats struct {
	RowGroupsRead   int64
	RowGroupsPruned int64
	FilesAllPruned  int64
	// PagesRead counts column pages fetched; PagesPruned counts page slots
	// skipped by page-index statistics; PagesFiltered counts page slots
	// whose filter selection came back empty, so payload columns were
	// never fetched (late materialization).
	PagesRead     int64
	PagesPruned   int64
	PagesFiltered int64
	// BilledGets / BilledBytes sum the S3 requests and bytes issued by
	// every file handle this source opened — the two cost drivers of the
	// paper's pricing model.
	BilledGets  int64
	BilledBytes int64
}

// Stats returns the operator's counters.
func (s *Source) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		RowGroupsRead:   s.rowGroupsRead,
		RowGroupsPruned: s.rowGroupsPruned,
		FilesAllPruned:  s.filesAllPruned,
		PagesRead:       s.pagesRead,
		PagesPruned:     s.pagesPruned,
		PagesFiltered:   s.pagesFiltered,
		BilledGets:      s.openGets,
		BilledBytes:     s.openBytes,
	}
	for _, h := range s.handles {
		st.BilledGets += h.Requests()
		st.BilledBytes += h.BytesRead()
	}
	return st
}

// open returns the (cached) metadata and handle of f. Concurrent callers for
// the same file block on one in-flight fetch instead of issuing duplicates;
// a failed open is forgotten so a later caller can retry.
func (s *Source) open(f FileRef) (*lpq.FileMeta, *s3fs.File, error) {
	return s.openVia(s.Client, f)
}

// openVia is open with the request, if one is needed, issued through via: the
// source's client, or a lane of its request window (OpenAll). Either way the
// handle data is read through is the client's own — a lane's clock ends with
// its window.
func (s *Source) openVia(via *s3.Client, f FileRef) (*lpq.FileMeta, *s3fs.File, error) {
	id := f.Bucket + "/" + f.Key
	s.mu.Lock()
	st, ok := s.opens[id]
	if !ok {
		st = &openState{}
		s.opens[id] = st
	}
	s.mu.Unlock()

	st.once.Do(func() {
		ft, err := s.readFooter(via, f, id)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil {
			st.err = err
			delete(s.opens, id)
			return
		}
		st.meta = ft.meta
		st.h = s3fs.NewFile(s.Client, f.Bucket, f.Key, ft.size)
		st.h.ChunkBytes = s.Cfg.ChunkBytes
		st.h.Conns = s.Cfg.Conns
		s.handles = append(s.handles, st.h)
	})
	return st.meta, st.h, st.err
}

// readFooter returns f's footer: from the session's table when it is there,
// else by the one request an open costs (s3fs.Open: the size and the guessed
// tail; a footer longer than the guess takes a second read for its prefix).
// An open through the source's own client tells the table what it learnt; a
// lane's is told by OpenAll, once the window has ended.
func (s *Source) readFooter(via *s3.Client, f FileRef, id string) (footer, error) {
	var gen uint64
	if s.Footers != nil {
		ft, g, ok := s.Footers.lookup(id)
		if ok {
			return ft, nil
		}
		gen = g
	}
	h, tail, err := s3fs.Open(via, f.Bucket, f.Key, lpq.FooterGuess)
	if err != nil {
		return footer{}, err
	}
	r, err := lpq.OpenTail(h, h.Size(), tail)
	s.mu.Lock()
	s.openGets += h.Requests()
	s.openBytes += h.BytesRead()
	s.mu.Unlock()
	if err != nil {
		return footer{}, fmt.Errorf("scan: opening %s: %w", id, err)
	}
	ft := footer{size: h.Size(), meta: r.Meta()}
	if s.Footers != nil && via == s.Client {
		s.Footers.store(id, gen, ft)
	}
	return ft, nil
}

// OpenAll opens every file of srcs — sources over one client — that neither
// its source nor the session's table knows, through one request window of
// that client (s3.Client.Overlap): n such files cost ⌈n/16⌉ first-byte
// latencies, not n — and no time at all against an in-memory S3, where the
// window's calls run back to back. The planner calls it on the sources of all
// the tables a plan scans; the statistics below and a multi-file scan (level 4)
// call it on their own.
func OpenAll(srcs ...*Source) error {
	type miss struct {
		s   *Source
		f   FileRef
		gen uint64 // the session table's, when the file was missing from it
	}
	var missing []miss
	for _, s := range srcs {
		for _, f := range s.Files {
			id := f.Bucket + "/" + f.Key
			s.mu.Lock()
			_, known := s.opens[id]
			s.mu.Unlock()
			var gen uint64
			if !known && s.Footers != nil {
				_, gen, known = s.Footers.lookup(id)
			}
			if !known {
				missing = append(missing, miss{s, f, gen})
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	learnt := make([]footer, len(missing))
	err := missing[0].s.Client.Overlap(len(missing), func(i int, lane *s3.Client) error {
		m := missing[i]
		meta, h, err := m.s.openVia(lane, m.f)
		if err == nil {
			learnt[i] = footer{size: h.Size(), meta: meta}
		}
		return err
	})
	// A lane runs ahead of its caller's clock. Had its open told the session
	// inside the window, a query planning at this same instant would know a
	// footer that has not arrived yet; here the last of them has.
	for i, m := range missing {
		if m.s.Footers != nil && learnt[i].meta != nil {
			m.s.Footers.store(m.f.Bucket+"/"+m.f.Key, m.gen, learnt[i])
		}
	}
	return err
}

// Schema returns the schema of the first file.
func (s *Source) Schema() (*columnar.Schema, error) {
	if len(s.Files) == 0 {
		return nil, fmt.Errorf("scan: no files")
	}
	meta, _, err := s.open(s.Files[0])
	if err != nil {
		return nil, err
	}
	return meta.Schema, nil
}

// TotalRows sums the row counts recorded in every file's footer — a
// metadata-only read: footers are a few hundred bytes, no column data.
func (s *Source) TotalRows() (int64, error) { return s.EstimateRows(nil) }

// EstimateRows bounds the rows that may satisfy preds, summing the
// page-granular footer estimate over every file (without predicates, the
// exact total). The planner makes the per-join broadcast-vs-shuffle choice
// and sizes stage fan-out from it: selective queries get smaller fleets.
func (s *Source) EstimateRows(preds []lpq.Predicate) (rows int64, err error) {
	err = s.eachFooter(func(_ FileRef, m *lpq.FileMeta) error {
		rows += lpq.EstimateRows(m, preds)
		return nil
	})
	return rows, err
}

// EstimateFileRows bounds the rows of one file that may satisfy preds —
// the per-file statistic behind pruned worker file assignment.
func (s *Source) EstimateFileRows(f FileRef, preds []lpq.Predicate) (int64, error) {
	meta, _, err := s.open(f)
	if err != nil {
		return 0, err
	}
	return lpq.EstimateRows(meta, preds), nil
}

// eachFooter opens every file's footer — in one request window: this is on
// the driver's plan-time critical path — and calls fn on them in file order.
func (s *Source) eachFooter(fn func(FileRef, *lpq.FileMeta) error) error {
	if err := OpenAll(s); err != nil {
		return err
	}
	for _, f := range s.Files {
		meta, _, err := s.open(f)
		if err == nil {
			err = fn(f, meta)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// CommonSchema is Schema once every file is held to it: a worker resolves a
// file's columns by name, and would index a same-named column of another type
// as the wrong vector.
func (s *Source) CommonSchema() (*columnar.Schema, error) {
	first, err := s.Schema()
	if err != nil {
		return nil, err
	}
	return first, s.eachFooter(func(f FileRef, m *lpq.FileMeta) error {
		if !first.Equal(m.Schema) {
			return fmt.Errorf("scan: %s/%s: schema differs from the first file's", f.Bucket, f.Key)
		}
		return nil
	})
}

// Bounds returns the smallest and largest value the footers record for the
// Int64 column col; !ok: no such column, a chunk without them, or no rows.
func (s *Source) Bounds(col string) (lo, hi int64, ok bool) {
	lo, hi, ok = math.MaxInt64, math.MinInt64, true
	err := s.eachFooter(func(_ FileRef, m *lpq.FileMeta) error {
		ci := m.Schema.Index(col)
		ok = ok && ci >= 0 && m.Schema.Fields[ci].Type == columnar.Int64
		for g := 0; ok && g < len(m.RowGroups); g++ {
			st := m.RowGroups[g].Columns[ci].Stats
			lo, hi, ok = min(lo, st.MinInt), max(hi, st.MaxInt), st.HasMinMax
		}
		return nil
	})
	return lo, hi, ok && err == nil && lo <= hi
}

// Scan yields the projected columns of every non-pruned row group of every
// file: ScanFiltered with no filter.
func (s *Source) Scan(proj []string, preds []lpq.Predicate, yield func(*columnar.Chunk) error) error {
	return s.ScanFiltered(proj, preds, nil, yield)
}

// ScanFiltered is the two-phase late-materialized scan (engine.
// FilterableSource): per surviving row group it fetches the filter's
// columns first, evaluates the filter into a per-page selection, and
// fetches payload columns only for pages where rows passed. Yielded chunks
// contain exactly the selected rows (every row under a nil filter). It
// exploits the configured concurrency levels, and the yield order is always
// the serial order — files in order, row groups in order within each file —
// whatever parallelism is configured.
func (s *Source) ScanFiltered(proj []string, preds []lpq.Predicate, filter engine.Expr, yield func(*columnar.Chunk) error) error {
	perFile := func(f FileRef, y func(*columnar.Chunk) error) error {
		return s.scanFile(f, proj, preds, filter, y)
	}

	// Level 4: the footers of all files in one request window, ahead of the
	// first file's data. A failed open is forgotten and resurfaces, in file
	// order, on the synchronous path.
	if len(s.Files) > 1 {
		_ = OpenAll(s)
	}

	if s.Cfg.ParallelFiles > 1 && len(s.Files) > 1 {
		return s.scanFilesParallel(perFile, yield)
	}

	for _, f := range s.Files {
		if err := perFile(f, yield); err != nil {
			return err
		}
	}
	return nil
}

var errScanCanceled = errors.New("scan: canceled")

// scanFilesParallel scans up to Cfg.ParallelFiles files concurrently
// (level 5). Every file's chunks flow through its own bounded channel and
// the consumer drains the channels in file order, so the yield sequence is
// identical to the serial scan while downloads and decoding of later files
// overlap with the consumption of earlier ones. The first error — a file
// error, in file order, or a yield error — cancels all in-flight workers.
//
// Admission is in file order, granted by the consumer: the active files are
// always the ParallelFiles lowest undrained ones. A plain semaphore would
// deadlock here — workers for later files could win every slot, fill their
// bounded channels, and block while the consumer waits on an earlier file
// whose worker never got a slot.
func (s *Source) scanFilesParallel(perFile func(FileRef, func(*columnar.Chunk) error) error, yield func(*columnar.Chunk) error) error {
	type item struct {
		chunk *columnar.Chunk
		err   error
	}
	n := len(s.Files)
	width := s.Cfg.ParallelFiles
	if width > n {
		width = n
	}
	chans := make([]chan item, n)
	starts := make([]chan struct{}, n)
	done := make(chan struct{})
	var cancel sync.Once
	stop := func() { cancel.Do(func() { close(done) }) }
	defer stop()

	for i, f := range s.Files {
		// Buffer 2: the file worker may run one chunk ahead of the
		// consumer, mirroring the row-group double buffer's depth.
		chans[i] = make(chan item, 2)
		starts[i] = make(chan struct{})
		go func(i int, f FileRef) {
			defer close(chans[i])
			select {
			case <-starts[i]:
			case <-done:
				return
			}
			err := perFile(f, func(c *columnar.Chunk) error {
				select {
				case chans[i] <- item{chunk: c}:
					return nil
				case <-done:
					return errScanCanceled
				}
			})
			if err != nil && !errors.Is(err, errScanCanceled) {
				select {
				case chans[i] <- item{err: err}:
				case <-done:
				}
			}
		}(i, f)
	}
	for i := 0; i < width; i++ {
		close(starts[i])
	}

	for i := range chans {
		for it := range chans[i] {
			if it.err != nil {
				return it.err
			}
			if err := yield(it.chunk); err != nil {
				return err
			}
		}
		// File i is fully drained: admit the next one.
		if next := i + width; next < n {
			close(starts[next])
		}
	}
	return nil
}

// scanFile scans one file: footer-level row-group pruning, then every
// surviving row group through readRowGroup. Groups whose selection comes
// back entirely empty yield nothing.
func (s *Source) scanFile(f FileRef, proj []string, preds []lpq.Predicate, filter engine.Expr, yield func(*columnar.Chunk) error) error {
	meta, h, err := s.open(f)
	if err != nil {
		return err
	}
	cols, outSchema, err := resolveProjection(meta.Schema, proj)
	if err != nil {
		return err
	}
	keep := lpq.PruneRowGroups(meta, preds)
	s.mu.Lock()
	s.rowGroupsPruned += int64(meta.NumRowGroups() - len(keep))
	if len(keep) == 0 {
		s.filesAllPruned++
	}
	s.mu.Unlock()
	if len(keep) == 0 {
		// The worker loaded only the footer, pruned everything, and
		// returns an empty result — the 100–200 ms workers of Figure 11.
		return nil
	}

	return s.scanGroups(keep, func(g int) (*columnar.Chunk, error) {
		return s.readRowGroup(h, meta, g, cols, outSchema, preds, filter)
	}, yield)
}

// scanGroups drains the kept row groups of one file through fetch in
// order, double-buffered when configured (level 3: download row group g+1
// while the consumer processes g). A nil chunk from fetch (fully filtered
// group) is counted as read but yields nothing.
func (s *Source) scanGroups(keep []int, fetch func(g int) (*columnar.Chunk, error), yield func(*columnar.Chunk) error) error {
	deliver := func(c *columnar.Chunk) error {
		s.mu.Lock()
		s.rowGroupsRead++
		s.mu.Unlock()
		if c == nil {
			return nil
		}
		return yield(c)
	}

	type fetched struct {
		chunk *columnar.Chunk
		err   error
	}

	if !s.Cfg.DoubleBuffer {
		for _, g := range keep {
			c, err := fetch(g)
			if err != nil {
				return err
			}
			if err := deliver(c); err != nil {
				return err
			}
		}
		return nil
	}

	next := make(chan fetched, 1)
	fetchInto := func(g int) {
		c, err := fetch(g)
		next <- fetched{chunk: c, err: err}
	}
	go fetchInto(keep[0])
	for i := range keep {
		res := <-next
		if i+1 < len(keep) {
			g := keep[i+1]
			go fetchInto(g)
		}
		if res.err != nil {
			if i+1 < len(keep) {
				<-next // drain the in-flight prefetch
			}
			return res.err
		}
		if err := deliver(res.chunk); err != nil {
			if i+1 < len(keep) {
				<-next
			}
			return err
		}
	}
	return nil
}

// readWholeGroup downloads the projected column chunks of one row group in
// one coalesced batch of range reads, decodes them and, given a filter,
// keeps the rows that pass — the read-then-filter of every scan that has
// nothing to materialize late. Returns nil when no row passes.
func (s *Source) readWholeGroup(h *s3fs.File, meta *lpq.FileMeta, g int, cols []int, outSchema *columnar.Schema, filter engine.Expr) (*columnar.Chunk, error) {
	rg := &meta.RowGroups[g]
	out := &columnar.Chunk{Schema: outSchema, Columns: make([]*columnar.Vector, len(cols))}

	ranges := make([]s3fs.Range, len(cols))
	for slot, ci := range cols {
		cc := &rg.Columns[ci]
		ranges[slot] = s3fs.Range{Off: cc.Offset, Len: cc.CompressedLen}
	}
	bufs, err := h.ReadRanges(ranges, s.Cfg.CoalesceGapBytes)
	if err != nil {
		return nil, err
	}
	st := s.decodeState()
	defer s.releaseState(st)
	for slot, ci := range cols {
		v, err := st.DecodeColumnChunk(bufs[slot], meta.Schema.Fields[ci].Type, rg.Columns[ci], rg.NumRows)
		if err != nil {
			return nil, err
		}
		out.Columns[slot] = v
	}
	if filter == nil {
		return out, nil
	}
	sel, err := engine.FilterSelection(out, filter, nil)
	if err != nil {
		return nil, err
	}
	switch len(sel) {
	case 0:
		return nil, nil
	case out.NumRows():
		return out, nil
	}
	return out.Gather(sel), nil
}

// decodeState hands the calling goroutine a decode state of its own — an
// idle one when there is one — to thread through the pages it decodes and
// give back with releaseState.
func (s *Source) decodeState() *lpq.DecodeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.idle); n > 0 {
		st := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return st
	}
	return new(lpq.DecodeState)
}

func (s *Source) releaseState(st *lpq.DecodeState) {
	s.mu.Lock()
	s.idle = append(s.idle, st)
	s.mu.Unlock()
}

// readRowGroup reads one row group. With filter columns to fetch first it is
// the two-phase read:
//
//	(1) prune the page index against the scan's predicates;
//	(2) fetch and decode the filter's columns for surviving pages, in one
//	    coalesced batch;
//	(3) evaluate the filter per page into a selection vector; pages with an
//	    empty selection drop out;
//	(4) fetch payload columns only for pages that still have selected rows,
//	    again coalesced;
//	(5) gather filter and payload columns by the selection, page by page in
//	    order, into one output chunk.
//
// Returns nil when no row of the group passes — the caller yields nothing
// and the payload columns were never transferred. Without such columns it is
// readWholeGroup.
func (s *Source) readRowGroup(h *s3fs.File, meta *lpq.FileMeta, g int, cols []int, outSchema *columnar.Schema, preds []lpq.Predicate, filter engine.Expr) (*columnar.Chunk, error) {
	rg := &meta.RowGroups[g]

	// Split the projection into filter columns and payload columns. The
	// optimizer guarantees filter columns ⊆ projection.
	var fslots, pslots []int // slots into cols/out.Columns
	if filter != nil && !s.Cfg.DisableLateMaterialize {
		isFilterCol := map[string]bool{}
		for _, name := range filter.Columns(nil) {
			isFilterCol[name] = true
		}
		for slot, ci := range cols {
			if isFilterCol[meta.Schema.Fields[ci].Name] {
				fslots = append(fslots, slot)
			} else {
				pslots = append(pslots, slot)
			}
		}
	}
	if len(fslots) == 0 {
		// Nothing to fetch first — no filter, the ablation, or a filter that
		// references no projected column (e.g. a constant predicate): read
		// every projected column, then filter.
		return s.readWholeGroup(h, meta, g, cols, outSchema, filter)
	}

	// Phase 1: page-index pruning. Every column of a row group is paged at
	// the same row boundaries (or the whole group is unpaged), so page slot
	// i of every column covers the same rows.
	keep := lpq.PrunePages(meta, g, preds)
	npages := len(keep)
	for _, ci := range cols {
		if n := len(rg.Columns[ci].PageSpans(rg.NumRows)); n != npages {
			return nil, fmt.Errorf("scan: column %q has %d pages, row group has %d page slots",
				meta.Schema.Fields[ci].Name, n, npages)
		}
	}
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	s.mu.Lock()
	s.pagesPruned += int64(npages - kept)
	s.mu.Unlock()
	if kept == 0 {
		return nil, nil
	}

	// Phase 2: fetch + decode filter columns for surviving pages.
	fvecs, err := s.fetchPages(h, meta, g, cols, fslots, keep)
	if err != nil {
		return nil, err
	}

	// Phase 3: evaluate the filter page by page into selections.
	fschema := mustProjectSlots(outSchema, fslots)
	sels := make([][]int, npages)
	total := 0
	filtered := 0
	for p := 0; p < npages; p++ {
		if !keep[p] {
			continue
		}
		fc := &columnar.Chunk{Schema: fschema, Columns: make([]*columnar.Vector, len(fslots))}
		for i, slot := range fslots {
			fc.Columns[i] = fvecs[slot][p]
		}
		sel, err := engine.FilterSelection(fc, filter, nil)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			keep[p] = false
			filtered++
			continue
		}
		sels[p] = sel
		total += len(sel)
	}
	s.mu.Lock()
	s.pagesFiltered += int64(filtered)
	s.mu.Unlock()
	if total == 0 {
		return nil, nil
	}

	// Phase 4: fetch payload columns only for pages with selected rows.
	pvecs, err := s.fetchPages(h, meta, g, cols, pslots, keep)
	if err != nil {
		return nil, err
	}

	// Phase 5: gather by selection, page by page in order.
	out := columnar.NewChunk(outSchema, total)
	for p := 0; p < npages; p++ {
		if !keep[p] {
			continue
		}
		sel := sels[p]
		for slot := range cols {
			var src *columnar.Vector
			if vs, ok := fvecs[slot]; ok {
				src = vs[p]
			} else {
				src = pvecs[slot][p]
			}
			out.Columns[slot].AppendGather(src, sel)
		}
	}
	return out, nil
}

// fetchPages fetches and decodes the kept pages of the given projection
// slots of row group g, returning vecs[slot][page]. Each column is fetched
// as ONE covering range from its first to its last kept page: interior
// holes (pruned or filtered-out pages between kept ones) are billed dead
// bytes, but the range never exceeds the column chunk and never takes more
// than the one request the full-chunk read would — so the fetch dominates
// the pre-page-index pattern in both billed GETs and billed bytes, and
// ReadRanges' cross-column coalescing can only improve the request count
// further. Columns with no kept page are skipped outright.
func (s *Source) fetchPages(h *s3fs.File, meta *lpq.FileMeta, g int, cols, slots []int, keep []bool) (map[int][]*columnar.Vector, error) {
	rg := &meta.RowGroups[g]
	npages := len(keep)
	lo, hi := -1, -1 // kept-page window, shared by every column
	for p, k := range keep {
		if k {
			if lo < 0 {
				lo = p
			}
			hi = p
		}
	}
	vecs := make(map[int][]*columnar.Vector, len(slots))
	for _, slot := range slots {
		vecs[slot] = make([]*columnar.Vector, npages)
	}
	if lo < 0 || len(slots) == 0 {
		return vecs, nil
	}

	ranges := make([]s3fs.Range, len(slots))
	for i, slot := range slots {
		cc := &rg.Columns[cols[slot]]
		pages := cc.PageSpans(rg.NumRows)
		start := pages[lo].RelOff
		end := pages[hi].RelOff + pages[hi].CompressedLen
		ranges[i] = s3fs.Range{Off: cc.Offset + start, Len: end - start}
	}
	bufs, err := h.ReadRanges(ranges, s.Cfg.CoalesceGapBytes)
	if err != nil {
		return nil, err
	}
	st := s.decodeState()
	defer s.releaseState(st)
	read := 0
	for i, slot := range slots {
		ci := cols[slot]
		cc := rg.Columns[ci]
		pages := cc.PageSpans(rg.NumRows)
		base := pages[lo].RelOff
		for p := lo; p <= hi; p++ {
			if !keep[p] {
				continue
			}
			pg := pages[p]
			off := pg.RelOff - base
			v, err := st.DecodePage(bufs[i][off:off+pg.CompressedLen], meta.Schema.Fields[ci].Type, cc, pg)
			if err != nil {
				return nil, err
			}
			vecs[slot][p] = v
			read++
		}
	}
	s.mu.Lock()
	s.pagesRead += int64(read)
	s.mu.Unlock()
	return vecs, nil
}

// mustProjectSlots builds the schema of the given slots of schema.
func mustProjectSlots(schema *columnar.Schema, slots []int) *columnar.Schema {
	fields := make([]columnar.Field, len(slots))
	for i, slot := range slots {
		fields[i] = schema.Fields[slot]
	}
	return columnar.NewSchema(fields...)
}

func resolveProjection(schema *columnar.Schema, proj []string) ([]int, *columnar.Schema, error) {
	if proj == nil {
		cols := make([]int, schema.Len())
		for i := range cols {
			cols[i] = i
		}
		return cols, schema, nil
	}
	cols := make([]int, len(proj))
	fields := make([]columnar.Field, len(proj))
	for i, name := range proj {
		ci := schema.Index(name)
		if ci < 0 {
			return nil, nil, fmt.Errorf("scan: column %q not in file", name)
		}
		cols[i] = ci
		fields[i] = schema.Fields[ci]
	}
	return cols, columnar.NewSchema(fields...), nil
}

// Ensure interface compliance.
var (
	_ engine.Source           = (*Source)(nil)
	_ engine.FilterableSource = (*Source)(nil)
)
