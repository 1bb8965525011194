package scan

import (
	"runtime"
	"testing"

	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
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

// scanAllocation is what a filtered scan of proj over one file of at least
// eight row groups of groupRows allocates, with the bytes it yielded in all,
// the largest chunk it yielded, and the bytes it downloaded. With recycle set
// the yield hands every chunk back to the source, as an aggregate does. The
// file is uploaded once and scanned three times, each on a fresh Source; the
// count is the smallest of the three, since TotalAlloc is process-wide and a
// run also counts what the runtime or another goroutine allocated meanwhile.
// The three runs must yield and download the same bytes.
func scanAllocation(t *testing.T, groupRows int, proj []string, filter engine.Expr, recycle bool) (got uint64, yielded, largest, downloaded int64) {
	svc := s3.New(s3.Config{})
	refs, _ := uploadLineitemOpts(t, svc, 0.005, 1, lpq.WriterOptions{RowGroupRows: groupRows, PageRows: 256, Compression: lpq.Gzip})
	for run := range 3 {
		n, y, l, d := scanOnce(t, New(newClient(svc), Config{}, refs...), proj, filter, recycle)
		if run > 0 && (y != yielded || l != largest || d != downloaded) {
			t.Fatalf("run %d yielded %d bytes, largest %d, downloaded %d; run 0 %d, %d, %d", run, y, l, d, yielded, largest, downloaded)
		}
		if run == 0 || n < got {
			got = n
		}
		yielded, largest, downloaded = y, l, d
	}
	return got, yielded, largest, downloaded
}

// scanOnce is one run of scanAllocation, on src.
func scanOnce(t *testing.T, src *Source, proj []string, filter engine.Expr, recycle bool) (got uint64, yielded, largest, downloaded int64) {
	meta, _, err := src.open(src.Files[0]) // the footer is set-up, not scan
	if err != nil {
		t.Fatal(err)
	}
	if g := meta.NumRowGroups(); g < 8 {
		t.Fatalf("%d row groups, want at least 8", g)
	}
	opened := src.Stats()
	got = allocated(t, func() {
		err = src.ScanFiltered(proj, nil, filter, func(c *columnar.Chunk) error {
			yielded += c.ByteSize()
			largest = max(largest, c.ByteSize())
			if recycle {
				src.Recycle(c)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if yielded == 0 {
		t.Fatal("the filter selected no rows — test has no teeth")
	}
	st := src.Stats()
	if st.RowGroupsRead != int64(meta.NumRowGroups()) || st.PagesFiltered == 0 {
		t.Fatalf("stats %+v: want every row group read and some pages filtered empty", st)
	}
	return got, yielded, largest, st.BilledBytes - opened.BilledBytes
}

// scanOverhead is one gzip inflater (about 64 KiB with its first output
// buffer) and the request window's and the row groups' bookkeeping (about
// 1 KiB a group).
const scanOverhead = 96 << 10

// TestScanFilteredRecyclesPages: a Q6-filtered scan of a file of 16 row
// groups decodes every page onto a recycled vector and evaluates its filter
// through recycled temporaries, so what it allocates beyond the chunks it
// yields and the bytes it downloads (each GET's reply is a buffer of its own)
// is two row groups' worth of decoded projection and a fixed overhead — not
// a row group's worth per row group, as a fresh vector per page costs.
func TestScanFilteredRecyclesPages(t *testing.T) {
	const groupRows = 2000
	proj := []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice", "l_returnflag"}
	got, yielded, _, downloaded := scanAllocation(t, groupRows, proj, q6Filter(), false)
	groupBytes := int64(groupRows * len(proj) * 8) // every projected column is 8 bytes a value
	if limit := uint64(yielded + downloaded + 2*groupBytes + scanOverhead); got >= limit {
		t.Errorf("scan allocated %d bytes, want < %d: %d yielded + %d downloaded + 2 × %d decoded a row group + %d",
			got, limit, yielded, downloaded, groupBytes, scanOverhead)
	}
}

// TestScanFilteredRecyclesYieldedChunks is TestScanFilteredRecyclesPages with
// every yielded chunk handed back (Recycle) once read: the next row group
// gathers into its vectors, so the chunks cost what the largest of them does,
// not what all of them do. Its filter keeps the file's rows shipped before
// 1995 — whole row groups of them, where Q6's keeps a few rows of a few
// groups — so that what the chunks would cost unrecycled is far above the
// bound's slack.
func TestScanFilteredRecyclesYieldedChunks(t *testing.T) {
	const groupRows = 2000
	proj := []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice", "l_returnflag"}
	before1995 := engine.NewBin(engine.OpLT, engine.Col("l_shipdate"), engine.ConstInt(tpch.Q6ShipDateHi))
	got, _, largest, downloaded := scanAllocation(t, groupRows, proj, before1995, true)
	groupBytes := int64(groupRows * len(proj) * 8)
	if limit := uint64(largest + downloaded + 2*groupBytes + scanOverhead); got >= limit {
		t.Errorf("scan allocated %d bytes, want < %d: %d the largest chunk + %d downloaded + 2 × %d decoded a row group + %d",
			got, limit, largest, downloaded, groupBytes, scanOverhead)
	}
}
