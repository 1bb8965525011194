// Package scan implements Lambada's S3-based Parquet scan operator
// (§4.3.2, Figure 8). The paper identifies four levels of concurrency, in
// the priority order it prescribes. Levels 1, 2 and 4 are requests, kept in
// flight the same way on both clocks: 2 and 4 through the S3 client's request
// window (s3.Client.Overlap), which starts no goroutine, and 1's chunks one
// after another on the lane that carries their read:
//
//	(4) the footers of all files opened in one request window ahead of the
//	    first file's data (OpenAll) — by the driver, at plan time: a worker's
//	    footers travel in its payload (Pin, Pinned), so its scan opens none;
//	(3) up to two row groups downloaded asynchronously (double buffering),
//	    overlapping download with decompression of the previous group — in
//	    part: small groups' downloads overlap each other (level 2), but
//	    compute is free on the virtual clock, so nothing overlaps a download
//	    (ROADMAP, direction 4(b));
//	(2) the coalesced column ranges of consecutive row groups, across files,
//	    issued in one request window while their bytes add up to at most
//	    payloadBreakEven (s3fs.ReadWindow; ScanFiltered) — and the first
//	    such window of every table one task scans, issued together (Pinned,
//	    Expect);
//	(1) multiple chunked requests per read, only as a fallback, since extra
//	    requests cost money (Figure 7).
//
// A scan runs on its caller's goroutine: files in order, row groups in order
// within each file. A Source is built per query or per invocation and belongs
// to that one goroutine, so it holds no lock; the one table concurrent queries
// share is a resident session's Footers.
//
// Under a filter a row group is materialized late: the filter's columns are
// fetched and evaluated first, and only pages with selected rows have their
// payload columns decoded. Fetching the payload in a request window of its
// own saves the bytes of the pages the filter empties and costs one more
// first-byte latency, so it is done only when those bytes are worth it: a
// payload of at most payloadBreakEven bytes — what one mean S3 GET latency
// buys at the sustained Lambda ingress rate, ≈ 2.9 MiB (§4.3.1, Figure 7) —
// is fetched in the filter's window instead.
//
// The operator implements engine.Source, so optimized plans push selections
// (as min/max prune predicates) and projections into it.
package scan

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"

	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/s3fs"
)

// Config is the operator's configuration, and has nothing left to set: the
// operator reads as the paper's does (§4.3.1–4.3.2) — 16 MiB requests
// (s3fs.DefaultChunkBytes) over four connections (conns), coalescing column
// ranges up to s3fs.DefaultCoalesceGap apart and decoding payload columns
// only for pages the filter selected rows from.
type Config struct {
	// DoubleBuffer, ParallelColumns, MetaPrefetch and ParallelFiles have no
	// effect: a scan runs on its caller's goroutine, and levels 2 and 4 ride
	// the client's request window, which costs no request, no byte and no
	// thread, so there is nothing to switch. Declared only because the frozen
	// bench/replay.go assigns them; see ROADMAP, "The next [benchmark] PR".
	DoubleBuffer    bool
	ParallelColumns bool
	MetaPrefetch    bool
	ParallelFiles   int
}

// DefaultConfig returns the zero Config.
func DefaultConfig() Config { return Config{} }

// conns is the number of concurrent connections modeled per transfer: the
// paper's operator downloads every chunk over four (Figure 7).
const conns = 4

// FileRef names one S3 object holding an lpq file. A pinned ref (Source.Pin)
// also carries what opening the object read — its size and its last
// footerLen+8 bytes, the footer as stored — so that a source over it
// (Pinned) opens nothing.
type FileRef struct {
	Bucket string
	Key    string
	Size   int64  `json:",omitempty"`
	Footer []byte `json:",omitempty"`
}

// Source scans a list of lpq files from S3. It implements engine.Source, and
// belongs to the one goroutine that scans it: nothing in it locks.
type Source struct {
	Client *s3.Client
	Files  []FileRef
	// Footers, when set, is the table a resident driver session keeps of the
	// files it has opened: open asks it before it asks S3, and tells it what
	// S3 answered. A worker's source (Pinned) has none: its payload's footers
	// are in its opens from the start, so it never asks S3.
	Footers *Footers
	// bound, when positive, caps what a row group's kept rows decode to: a
	// worker's resident budget (Pinned).
	bound int64
	// shared is the first request window this source shares with the other
	// sources of its Pinned call; expect, the scan it was told to expect
	// there (Expect) and, once that window is fetched, what it read for it.
	shared *firstWindow
	expect *walk

	// opens holds every file this source has opened, by object; a failed
	// open is not kept, so a later call tries it again.
	opens map[string]opened
	// handles lists every file handle data is read through, and openGets /
	// openBytes what the opens themselves were billed, for summing billed
	// request/byte counters without touching the opens map.
	handles   []*s3fs.File
	openGets  int64
	openBytes int64

	// st is threaded through every page the source decodes.
	st lpq.DecodeState
	// pool recycles what a row group's read leaves behind once its chunk is
	// gathered — decoded pages, per-page selections, the filter's
	// temporaries — into the next row group's read. It dies with the Source
	// too. A chunk the scan yields comes from chunks, never from it.
	pool columnar.Pool
	// chunks is where every chunk the scan yields comes from, and where
	// Recycle returns one a consumer has finished with. It is a pool of its
	// own because its vectors are a row group long and pool's a page long: a
	// free list shared by both would hand a page's vector to a group's gather.
	chunks columnar.Pool

	// Stats.
	rowGroupsRead   int64
	rowGroupsPruned int64
	filesAllPruned  int64
	pagesRead       int64
	pagesPruned     int64
	pagesFiltered   int64
}

// opened is an open file: its footer, and the handle its data is read
// through.
type opened struct {
	ft footer
	h  *s3fs.File
}

// footer is what opening a file learns: its size, its decoded metadata and
// the trailing bytes that metadata was decoded from (Pin ships them), all
// immutable. A handle is not part of it — a handle is bound to one client,
// and s3fs.NewFile makes one from the size for free.
type footer struct {
	size    int64
	meta    *lpq.FileMeta
	trailer []byte
}

// Footers is a table of opened files' footers by object, shared by the
// sources of one resident session so that a file is opened once per session
// and not once per query. Its contract is the result cache's: the objects are
// immutable until the owner says otherwise by calling Drop. Its concurrent
// callers are the session's queries, so it is the one thing of the package
// that locks. It never makes one query's source wait for another's open —
// two that miss together both read, and store the same thing — because under
// DES a process blocked on a Go lock that a parked process holds stalls the
// kernel: its lock is held across no request. Safe for concurrent use.
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

// New returns a source over files. The Config has no effect.
func New(client *s3.Client, _ Config, files ...FileRef) *Source {
	return &Source{
		Client: client,
		Files:  files,
		opens:  make(map[string]opened),
	}
}

// Pinned returns a source per table, in order, over its files, which carry
// their footers (Pin). Each footer is decoded here, before any request,
// through lpq.OpenTail with all of its checks and none of its reads, and put
// in its source's opens, so no source ever opens a file from S3 and every
// request one makes is a data read. A file without its footer, or with one
// that does not decode against its size, fails the call. A row group whose
// kept rows × projected widths pass bound bytes (> 0) — a worker's resident
// budget, engine.ResidentBudget — fails its scan from the footer, before its
// bytes are fetched.
//
// The sources share their first request window: the first scan of any of
// them plans the first window of every source that was told what its scan
// will ask for (Expect) and fetches them all at once (s3fs.ReadWindow), so a
// task that scans a join's two sides pays one first-byte latency for both
// before each goes on with its own windows.
func Pinned(client *s3.Client, bound int64, tables ...[]FileRef) ([]*Source, error) {
	shared := &firstWindow{}
	for _, files := range tables {
		s := New(client, Config{}, files...)
		s.bound, s.shared = bound, shared
		for _, f := range files {
			r, err := lpq.OpenTail(nil, f.Size, f.Footer)
			if err != nil {
				return nil, fmt.Errorf("scan: %s/%s: shipped footer: %w", f.Bucket, f.Key, err)
			}
			s.remember(f, footer{size: f.Size, meta: r.Meta(), trailer: r.Trailer()})
		}
		shared.srcs = append(shared.srcs, s)
	}
	return shared.srcs, nil
}

// Pin returns files as refs that carry what this source's opens of them read
// (FileRef.Size, FileRef.Footer), opening any it has not: what a worker's
// source (Pinned) opens them from without a request. The bytes are the
// source's own, so a Footers.Drop after its opens does not reach them.
func (s *Source) Pin(files []FileRef) ([]FileRef, error) {
	out := make([]FileRef, len(files))
	for i, f := range files {
		o, err := s.openVia(s.Client, f)
		if err != nil {
			return nil, err
		}
		out[i] = FileRef{Bucket: f.Bucket, Key: f.Key, Size: o.ft.size, Footer: o.ft.trailer}
	}
	return out, nil
}

// Stats reports scan counters.
type Stats struct {
	RowGroupsRead   int64
	RowGroupsPruned int64
	FilesAllPruned  int64
	// PagesRead counts column pages decoded; PagesPruned counts page slots
	// skipped by page-index statistics; PagesFiltered counts page slots
	// whose filter selection came back empty, so their payload columns were
	// never decoded — nor fetched, unless they rode the filter's request
	// window (late materialization).
	PagesRead     int64
	PagesPruned   int64
	PagesFiltered int64
	// BilledGets / BilledBytes sum the S3 requests and bytes issued by
	// every file handle this source opened — the two cost drivers of the
	// paper's pricing model. DeadBytes are the holes among BilledBytes that
	// coalesced spans carried between wanted ranges, fetched for free.
	BilledGets  int64
	BilledBytes int64
	DeadBytes   int64
}

// Stats returns the operator's counters.
func (s *Source) Stats() Stats {
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
		st.DeadBytes += h.DeadBytes()
	}
	return st
}

// open returns the metadata and handle of f, opening it once per source; a
// failed open is forgotten, so a later call tries again.
func (s *Source) open(f FileRef) (*lpq.FileMeta, *s3fs.File, error) {
	o, err := s.openVia(s.Client, f)
	return o.ft.meta, o.h, err
}

// openVia is open with the request, if one is needed, issued through via: the
// source's client, or a lane of its request window (OpenAll).
func (s *Source) openVia(via *s3.Client, f FileRef) (opened, error) {
	id := f.Bucket + "/" + f.Key
	if o, ok := s.opens[id]; ok {
		return o, nil
	}
	ft, err := s.readFooter(via, f, id)
	if err != nil {
		return opened{}, err
	}
	return s.remember(f, ft), nil
}

// remember records f as opened with footer ft. The handle its data is read
// through is the source's client's own, whatever the footer came through — a
// lane's clock ends with its window.
func (s *Source) remember(f FileRef, ft footer) opened {
	h := s3fs.NewFile(s.Client, f.Bucket, f.Key, ft.size)
	h.Conns = conns
	s.handles = append(s.handles, h)
	o := opened{ft: ft, h: h}
	s.opens[f.Bucket+"/"+f.Key] = o
	return o
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
	s.openGets += h.Requests()
	s.openBytes += h.BytesRead()
	if err != nil {
		return footer{}, fmt.Errorf("scan: opening %s: %w", id, err)
	}
	// The trailer, not the guessed tail it may sit in: that is what Pin ships.
	ft := footer{size: h.Size(), meta: r.Meta(), trailer: bytes.Clone(r.Trailer())}
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
			_, known := s.opens[id]
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
		o, err := m.s.openVia(lane, m.f)
		learnt[i] = o.ft
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

// ScanFiltered is the late-materialized scan (engine.FilterableSource): per
// surviving row group it fetches the filter's columns first, evaluates the
// filter into a per-page selection, and decodes payload columns only for
// pages where rows passed. Yielded chunks contain exactly the selected rows
// (every row under a nil filter), files in order and row groups in order
// within each file.
//
// A row group is read in two steps, plan and finish, around its first request
// window, which consecutive groups share, across files, while their reads add
// up to at most payloadBreakEven (a window takes at least one). The trade: a
// consumer that stops early (a LIMIT the first group meets) has paid for the
// rest of its window — at most payloadBreakEven bytes and their GETs. On a
// source of a Pinned call, the first scan of any of its sources fetches the
// first window of every one that expects a scan (Expect); a scan that asks
// for what its source expects starts from the groups fetched there.
func (s *Source) ScanFiltered(proj []string, preds []lpq.Predicate, filter engine.Expr, yield func(*columnar.Chunk) error) error {
	// Level 4: the footers of all files in one request window, ahead of the
	// first file's data — none on a Pinned source, whose table knows them. A
	// failed open is forgotten and resurfaces, in file order, once the groups
	// of the files before it are yielded.
	if len(s.Files) > 1 {
		_ = OpenAll(s)
	}
	if fw := s.shared; fw != nil && !fw.fetched {
		fw.fetch()
	}
	var fresh walk
	w := s.expect
	s.expect = nil
	if w == nil || !w.asks(proj, preds, filter) {
		fresh = walk{proj: proj, preds: preds, filter: filter}
		w = &fresh
	} else if err := s.yieldWindow(w.ahead, w.bufs, filter, yield); err != nil {
		return err
	} else if w.err != nil {
		return w.err
	}
	for !w.done {
		window, err := s.nextWindow(w)
		if rerr := s.readWindow(window, filter, yield); rerr != nil {
			return rerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// walk is a scan between two request windows: what it asks for, the next
// file it opens, the kept row groups of the file before that it has not
// planned yet, and a group it planned past the last window's end. An
// expected scan's walk (Expect) also holds what the shared first window
// fetched for it: the groups, their bytes, and the error the walk met
// planning them, which the scan returns once they are yielded.
type walk struct {
	proj   []string
	preds  []lpq.Predicate
	filter engine.Expr

	file int
	f    FileRef
	meta *lpq.FileMeta
	h    *s3fs.File
	pr   *projection
	keep []int
	next *groupRead
	done bool
	// window is the last window's backing array, which the next one reuses
	// once the last is yielded.
	window []*groupRead

	ahead []*groupRead
	bufs  [][][]byte
	err   error
}

// asks reports whether a scan of proj, preds and filter is the one w walks.
func (w *walk) asks(proj []string, preds []lpq.Predicate, filter engine.Expr) bool {
	return reflect.DeepEqual(w.proj, proj) && reflect.DeepEqual(w.preds, preds) && reflect.DeepEqual(w.filter, filter)
}

// nextWindow plans w's next request window: consecutive row groups, across
// files, while their first reads add up to at most payloadBreakEven (a window
// takes at least one). A file that fails to open or to resolve the projection
// ends the walk with its error, after the window planned before it; a group
// past the bound ends it at once, with no window.
func (s *Source) nextWindow(w *walk) ([]*groupRead, error) {
	window := w.window[:0]
	var size int64
	if r := w.next; r != nil {
		window, size, w.next = append(window, r), coveredBytes(r.first), nil
	}
	for {
		for len(w.keep) > 0 {
			g := w.keep[0]
			w.keep = w.keep[1:]
			r, err := s.plan(w.f, w.h, w.meta, g, w.pr, w.preds)
			if err != nil {
				w.done = true
				return nil, err
			} else if r == nil {
				continue
			}
			n := coveredBytes(r.first)
			if len(window) > 0 && size+n > payloadBreakEven {
				w.next, w.window = r, window
				return window, nil
			}
			window, size = append(window, r), size+n
		}
		if w.file == len(s.Files) {
			w.done = true
			return window, nil
		}
		f := s.Files[w.file]
		w.file++
		meta, h, err := s.open(f)
		var pr *projection
		if err == nil {
			pr, err = resolveProjection(meta.Schema, w.proj, w.filter)
		}
		if err != nil {
			w.done = true
			return window, err
		}
		keep := lpq.PruneRowGroups(meta, w.preds)
		s.rowGroupsPruned += int64(meta.NumRowGroups() - len(keep))
		if len(keep) == 0 {
			s.filesAllPruned++
		}
		// With nothing kept the worker pruned everything from the footer its
		// payload carried and returns an empty result without a request — the
		// 100–200 ms workers of Figure 11, which paid a footer read for it.
		w.f, w.meta, w.h, w.pr, w.keep = f, meta, h, pr, keep
	}
}

// firstWindow is the request window the sources of one Pinned call — one
// task's tables, scanned on one goroutine — share.
type firstWindow struct {
	srcs    []*Source
	fetched bool
}

// Expect tells a source of a Pinned call the one scan its task will run over
// it: its first request window is then planned and fetched with the other
// sources' at the first scan of any of them. A scan that asks for anything
// else reads as if nothing were expected, and that window's bytes were
// fetched for nothing.
func (s *Source) Expect(proj []string, preds []lpq.Predicate, filter engine.Expr) {
	s.expect = &walk{proj: proj, preds: preds, filter: filter}
}

// fetch plans the first window of every expected scan and reads them all in
// one request window (s3fs.ReadWindow). A failed read fails every one of
// those scans.
func (fw *firstWindow) fetch() {
	fw.fetched = true
	var reads []s3fs.Read
	for _, s := range fw.srcs {
		if w := s.expect; w != nil {
			w.ahead, w.err = s.nextWindow(w)
			for _, r := range w.ahead {
				reads = append(reads, s3fs.Read{File: r.h, Ranges: r.first})
			}
		}
	}
	if len(reads) == 0 {
		return
	}
	bufs, err := s3fs.ReadWindow(fw.srcs[0].Client, reads)
	for _, s := range fw.srcs {
		if w := s.expect; w != nil && err != nil {
			w.ahead, w.err, w.done = nil, err, true
		} else if w != nil {
			w.bufs, bufs = bufs[:len(w.ahead)], bufs[len(w.ahead):]
		}
	}
}

// Hold returns what a consumer that keeps every row the scan of proj under
// preds yields — a hash join's build side — holds: from the footers alone, the
// rows preds may keep (lpq.EstimateRows) × the projected widths, refused past
// bound bytes with lpq.ErrOverBound before any of them is fetched. It changes
// nothing the scan then reads: its row groups are spanned like any other's.
func (s *Source) Hold(proj []string, preds []lpq.Predicate, bound int64) (int64, error) {
	var n int64
	for _, f := range s.Files {
		meta, _, err := s.open(f)
		if err != nil {
			return 0, err
		}
		pr, err := resolveProjection(meta.Schema, proj, nil)
		if err != nil {
			return 0, err
		}
		width := pr.schema.Width()
		rows := lpq.EstimateRows(meta, preds)
		if width > 0 && rows > (bound-n)/width {
			return 0, fmt.Errorf("scan: %s/%s: %w: %d more rows of %d bytes after %d bytes, bound %d",
				f.Bucket, f.Key, lpq.ErrOverBound, rows, width, n, bound)
		}
		n += rows * width
	}
	return n, nil
}

// Rows counts the rows a scan without a filter under preds yields
// (engine.RowCounter): those of every row group lpq.PruneRowGroups keeps, from
// the footers in the source's opens. It never issues a request, so it fails
// (!ok) on a file not open yet; and it fails once the rows of width bytes pass
// the source's bound — a source without one (Pinned's) counts none.
func (s *Source) Rows(preds []lpq.Predicate, width int64) (rows int64, ok bool) {
	limit := s.bound / max(width, 1)
	for _, f := range s.Files {
		o, open := s.opens[f.Bucket+"/"+f.Key]
		if !open {
			return 0, false
		}
		for _, g := range lpq.PruneRowGroups(o.ft.meta, preds) {
			n := o.ft.meta.RowGroups[g].NumRows
			if n > limit-rows {
				return 0, false
			}
			rows += n
		}
	}
	return rows, true
}

// groupRead is a row group's read between plan and finish: the page slots the
// page index kept (nil: read whole) from lo on, and its first window's ranges.
type groupRead struct {
	h     *s3fs.File
	meta  *lpq.FileMeta
	g, lo int
	pr    *projection
	keep  []bool
	first []s3fs.Range
	early bool
}

// plan is a row group's first step, from the footer alone: its first window
// is its projected column chunks when read whole (no filter column to fetch
// first), else the filter's pages the page index kept (all columns are paged
// alike) and, early, the payload's — at most payloadBreakEven, cheaper than
// another latency. It refuses a group whose kept rows × projected widths pass
// the bound, wrapping lpq.ErrOverBound. nil: the page index kept nothing.
func (s *Source) plan(f FileRef, h *s3fs.File, meta *lpq.FileMeta, g int, pr *projection, preds []lpq.Predicate) (*groupRead, error) {
	rg := &meta.RowGroups[g]
	r := &groupRead{h: h, meta: meta, g: g, pr: pr}
	rows := rg.NumRows
	if len(pr.fslots) == 0 {
		for _, ci := range pr.cols {
			cc := &rg.Columns[ci]
			r.first = append(r.first, s3fs.Range{Off: cc.Offset, Len: cc.CompressedLen})
		}
	} else {
		r.keep = lpq.PrunePages(meta, g, preds)
		lo, hi, kept := pageWindow(r.keep)
		s.pagesPruned += int64(len(r.keep) - kept)
		if kept == 0 {
			s.rowGroupsRead++
			return nil, nil
		}
		rows = 0
		for p, pg := range rg.Columns[pr.cols[0]].PageSpans(rg.NumRows) {
			if r.keep[p] {
				rows += pg.NumRows
			}
		}
		r.lo = lo
		r.first = pageRanges(nil, rg, pr.cols, pr.fslots, lo, hi)
		payload := pageRanges(nil, rg, pr.cols, pr.pslots, lo, hi)
		if r.early = coveredBytes(payload) <= payloadBreakEven; r.early {
			r.first = append(r.first, payload...)
		}
	}
	if width := pr.schema.Width(); s.bound > 0 && width > 0 && rows > s.bound/width {
		return nil, fmt.Errorf("scan: %s/%s row group %d: %w: %d rows of %d bytes, bound %d",
			f.Bucket, f.Key, g, lpq.ErrOverBound, rows, width, s.bound)
	}
	return r, nil
}

// readWindow fetches the planned groups' first reads in one request window
// (s3fs.ReadWindow), then finishes and yields them (yieldWindow).
func (s *Source) readWindow(window []*groupRead, filter engine.Expr, yield func(*columnar.Chunk) error) error {
	if len(window) == 0 {
		return nil
	}
	reads := make([]s3fs.Read, len(window))
	for i, r := range window {
		reads[i] = s3fs.Read{File: r.h, Ranges: r.first}
	}
	bufs, err := s3fs.ReadWindow(s.Client, reads)
	if err != nil {
		return err
	}
	return s.yieldWindow(window, bufs, filter, yield)
}

// yieldWindow finishes and yields a window's groups in order, on the bytes
// its request window read for each (bufs), letting each one's bytes go once
// it is decoded.
func (s *Source) yieldWindow(window []*groupRead, bufs [][][]byte, filter engine.Expr, yield func(*columnar.Chunk) error) error {
	for i, r := range window {
		c, err := s.finish(r, bufs[i], filter)
		if err != nil {
			return err
		}
		bufs[i] = nil
		s.rowGroupsRead++
		if c == nil {
			continue
		}
		if err := yield(c); err != nil {
			return err
		}
	}
	return nil
}

// finish is a row group's second step, on its first window's bytes (bufs, like
// r.first). Read late: decode the filter's pages, filter each into a selection
// (an empty one drops the page), decode the payload of the pages left —
// fetched first in a second window unless early — and gather, page by page,
// into a chunk of the chunk pool, the pages going back to the pool. nil: no
// row passes, and no payload page was decoded.
func (s *Source) finish(r *groupRead, bufs [][]byte, filter engine.Expr) (*columnar.Chunk, error) {
	if r.keep == nil {
		return s.finishWhole(r, bufs, filter)
	}
	meta, g, pr, keep := r.meta, r.g, r.pr, r.keep
	vecs := make([][]*columnar.Vector, len(pr.cols)) // [slot][page]
	if err := s.decodePages(meta, g, pr.cols, pr.fslots, keep, r.lo, bufs, vecs); err != nil {
		return nil, err
	}
	fc := &columnar.Chunk{Schema: pr.fschema, Columns: make([]*columnar.Vector, len(pr.fslots))}
	sels := make([][]int, len(keep))
	total, filtered := 0, 0
	for p := range keep {
		if !keep[p] {
			continue
		}
		for i, slot := range pr.fslots {
			fc.Columns[i] = vecs[slot][p]
		}
		sel, err := engine.FilterSelection(fc, filter, s.pool.GetSelection(), &s.pool)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			s.pool.PutSelection(sel)
			keep[p] = false
			filtered++
			continue
		}
		sels[p] = sel
		total += len(sel)
	}
	s.pagesFiltered += int64(filtered)
	if total == 0 {
		s.recycle(vecs, nil)
		return nil, nil
	}

	lo, hi, _ := pageWindow(keep)
	var err error
	if r.early {
		lo, bufs = r.lo, bufs[len(pr.fslots):]
	} else if bufs, err = r.h.ReadRanges(pageRanges(nil, &meta.RowGroups[g], pr.cols, pr.pslots, lo, hi)); err != nil {
		return nil, err
	}
	if err := s.decodePages(meta, g, pr.cols, pr.pslots, keep, lo, bufs, vecs); err != nil {
		return nil, err
	}
	out := s.chunks.GetChunk(pr.schema, total)
	for p := range keep {
		if !keep[p] {
			continue
		}
		for slot := range pr.cols {
			out.Columns[slot].AppendGather(vecs[slot][p], sels[p])
		}
	}
	s.recycle(vecs, sels)
	return out, nil
}

// finishWhole is finish for a group read whole: its projected column chunks
// decoded onto a chunk of the source's chunk pool and, given a filter, the
// rows that pass kept. Returns nil when no row passes.
func (s *Source) finishWhole(r *groupRead, bufs [][]byte, filter engine.Expr) (*columnar.Chunk, error) {
	rg := &r.meta.RowGroups[r.g]
	out := s.chunks.GetChunk(r.pr.schema, int(rg.NumRows))
	for slot, ci := range r.pr.cols {
		if err := s.st.DecodeColumnChunkOnto(out.Columns[slot], bufs[slot], rg.Columns[ci], rg.NumRows); err != nil {
			return nil, err
		}
	}
	if filter == nil {
		return out, nil
	}
	sel, err := engine.FilterSelection(out, filter, s.pool.GetSelection(), &s.pool)
	if err != nil {
		return nil, err
	}
	defer s.pool.PutSelection(sel)
	switch len(sel) {
	case 0:
		s.chunks.PutChunk(out)
		return nil, nil
	case out.NumRows():
		return out, nil
	}
	kept := s.chunks.GetChunk(r.pr.schema, len(sel))
	kept.AppendGather(out, sel)
	s.chunks.PutChunk(out)
	return kept, nil
}

// Recycle takes back a chunk this source yielded (engine.Recycler): its
// consumer has folded or copied it and will not read it again. The next row group
// gathers into its vectors.
func (s *Source) Recycle(c *columnar.Chunk) { s.chunks.PutChunk(c) }

// recycle hands a gathered row group's decoded pages and selections back to
// the source's pool.
func (s *Source) recycle(vecs [][]*columnar.Vector, sels [][]int) {
	for _, pages := range vecs {
		for _, v := range pages {
			s.pool.PutVector(v)
		}
	}
	for _, sel := range sels {
		s.pool.PutSelection(sel)
	}
}

// payloadBreakEven is the payload, in bytes, that downloads in one mean S3
// GET first-byte latency at the sustained Lambda ingress rate: 32.2 ms ×
// 90 MiB/s ≈ 2.9 MiB (§4.3.1, Figure 7). Below it a second request window
// costs more time than the bytes it saves, so a row group whose kept payload
// is at most this big fetches its payload in the filter's window, and
// consecutive row groups whose first windows add up to at most this share one.
var payloadBreakEven = int64(s3.DefaultAWSConfig(nil, 0).GetLatency.Mean().Seconds() *
	float64(netmodel.DefaultLambdaNet().Sustained))

// pageWindow returns the first and last page slot keep admits, and how many
// it admits; lo is -1 when it admits none.
func pageWindow(keep []bool) (lo, hi, kept int) {
	lo, hi = -1, -1
	for p, k := range keep {
		if k {
			if lo < 0 {
				lo = p
			}
			hi = p
			kept++
		}
	}
	return lo, hi, kept
}

// pageRanges appends to dst, for each of the given projection slots, ONE
// covering range over its pages lo..hi of row group rg. Interior holes
// (pruned or filtered-out pages between kept ones) are fetched as dead bytes,
// but the range never exceeds the column chunk and never takes more than the
// one request the full-chunk read would — so a read of them never bills more
// GETs than reading whole column chunks — and ReadWindow's cross-column
// coalescing, which fetches the free holes between them, can only lower the
// request count further.
func pageRanges(dst []s3fs.Range, rg *lpq.RowGroupMeta, cols, slots []int, lo, hi int) []s3fs.Range {
	for _, slot := range slots {
		cc := &rg.Columns[cols[slot]]
		pages := cc.PageSpans(rg.NumRows)
		start := pages[lo].RelOff
		end := pages[hi].RelOff + pages[hi].CompressedLen
		dst = append(dst, s3fs.Range{Off: cc.Offset + start, Len: end - start})
	}
	return dst
}

// coveredBytes sums the lengths of ranges.
func coveredBytes(ranges []s3fs.Range) int64 {
	var n int64
	for _, r := range ranges {
		n += r.Len
	}
	return n
}

// decodePages decodes the kept pages of the given projection slots of row
// group g onto vectors of the source's pool, setting vecs[slot][page] (nil for
// a page not kept). bufs[i] holds the pages of slots[i] from page lo on, as
// pageRanges covered them; pages outside keep are never decoded.
func (s *Source) decodePages(meta *lpq.FileMeta, g int, cols, slots []int, keep []bool, lo int, bufs [][]byte, vecs [][]*columnar.Vector) error {
	rg := &meta.RowGroups[g]
	read := 0
	for i, slot := range slots {
		ci := cols[slot]
		cc := rg.Columns[ci]
		pages := cc.PageSpans(rg.NumRows)
		base := pages[lo].RelOff
		vecs[slot] = make([]*columnar.Vector, len(keep))
		for p := lo; p < len(keep); p++ {
			if !keep[p] {
				continue
			}
			pg := pages[p]
			off := pg.RelOff - base
			v := s.pool.GetVector(meta.Schema.Fields[ci].Type, int(pg.NumRows))
			vecs[slot][p] = v
			if err := s.st.DecodePageOnto(v, bufs[i][off:off+pg.CompressedLen], cc, pg); err != nil {
				return err
			}
			read++
		}
	}
	s.pagesRead += int64(read)
	return nil
}

// mustProjectSlots builds the schema of the given slots of schema.
func mustProjectSlots(schema *columnar.Schema, slots []int) *columnar.Schema {
	fields := make([]columnar.Field, len(slots))
	for i, slot := range slots {
		fields[i] = schema.Fields[slot]
	}
	return columnar.NewSchema(fields...)
}

// projection is a scan's projection resolved against one file's schema: the
// file columns it reads, by output slot, the output schema and, under a
// filter, the slots the filter reads (fslots, with their schema fschema) and
// the rest, the payload (pslots). The optimizer guarantees filter columns ⊆
// projection.
type projection struct {
	cols           []int
	schema         *columnar.Schema
	fslots, pslots []int
	fschema        *columnar.Schema
}

func resolveProjection(schema *columnar.Schema, proj []string, filter engine.Expr) (*projection, error) {
	p := &projection{schema: schema}
	if proj == nil {
		p.cols = make([]int, schema.Len())
		for i := range p.cols {
			p.cols[i] = i
		}
	} else {
		p.cols = make([]int, len(proj))
		fields := make([]columnar.Field, len(proj))
		for i, name := range proj {
			ci := schema.Index(name)
			if ci < 0 {
				return nil, fmt.Errorf("scan: column %q not in file", name)
			}
			p.cols[i] = ci
			fields[i] = schema.Fields[ci]
		}
		p.schema = columnar.NewSchema(fields...)
	}
	if filter == nil {
		return p, nil
	}
	isFilterCol := map[string]bool{}
	for _, name := range filter.Columns(nil) {
		isFilterCol[name] = true
	}
	for slot, ci := range p.cols {
		if isFilterCol[schema.Fields[ci].Name] {
			p.fslots = append(p.fslots, slot)
		} else {
			p.pslots = append(p.pslots, slot)
		}
	}
	p.fschema = mustProjectSlots(p.schema, p.fslots)
	return p, nil
}

// Ensure interface compliance.
var (
	_ engine.Source           = (*Source)(nil)
	_ engine.FilterableSource = (*Source)(nil)
	_ engine.Recycler         = (*Source)(nil)
	_ engine.RowCounter       = (*Source)(nil)
)
