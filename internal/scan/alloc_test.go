package scan

import (
	"runtime"
	"testing"

	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
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

// TestScanFilteredRecyclesPages: a Q6-filtered scan of a file of 16 row
// groups decodes every page onto a recycled vector and evaluates its filter
// through recycled temporaries, so what it allocates beyond the chunks it
// yields and the bytes it downloads (each GET's reply is a buffer of its own)
// is two row groups' worth of decoded projection and a fixed overhead — not
// a row group's worth per row group, as a fresh vector per page costs.
func TestScanFilteredRecyclesPages(t *testing.T) {
	const groupRows = 2000
	proj := []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice", "l_returnflag"}
	svc := s3.New(s3.Config{})
	refs, _ := uploadLineitemOpts(t, svc, 0.005, 1, lpq.WriterOptions{RowGroupRows: groupRows, PageRows: 256, Compression: lpq.Gzip})
	src := New(newClient(svc), Config{}, refs...)
	meta, _, err := src.open(refs[0]) // the footer is set-up, not scan
	if err != nil {
		t.Fatal(err)
	}
	if g := meta.NumRowGroups(); g < 8 {
		t.Fatalf("%d row groups, want at least 8", g)
	}
	var yielded int64
	opened := src.Stats()
	got := allocated(t, func() {
		err = src.ScanFiltered(proj, nil, q6Filter(), func(c *columnar.Chunk) error {
			yielded += c.ByteSize()
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
	downloaded := st.BilledBytes - opened.BilledBytes
	groupBytes := int64(groupRows * len(proj) * 8) // every projected column is 8 bytes a value
	// One gzip inflater (about 64 KiB with its first output buffer) and
	// the request window's and the row groups' bookkeeping (about 1 KiB a
	// group).
	const overhead = 96 << 10
	if limit := uint64(yielded + downloaded + 2*groupBytes + overhead); got >= limit {
		t.Errorf("scan of %d row groups allocated %d bytes, want < %d: %d yielded + %d downloaded + 2 × %d decoded a row group + %d",
			meta.NumRowGroups(), got, limit, yielded, downloaded, groupBytes, overhead)
	}
}
