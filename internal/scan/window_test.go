package scan

import (
	"runtime"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/simclock"
)

// TestRequestLevelsRideTheWindowOnDES: a DES process scans four files with
// the default configuration minus the two thread levels — what a
// deterministic session runs — and levels 2 and 4 engage without a goroutine:
// the four footers cost one first-byte latency and the two far-apart column
// spans of every row group another, where they cost one each when read in
// turn; the requests, the bytes and the chunks are the serial scan's.
func TestRequestLevelsRideTheWindowOnDES(t *testing.T) {
	svc := s3.New(s3.Config{GetLatency: netmodel.Constant(lat)})
	refs, _ := uploadLineitemOpts(t, svc, 0.01, 4, lpq.WriterOptions{RowGroupRows: 4000, PageRows: 512})
	proj := []string{"l_orderkey", "l_shipdate"}
	// Recorded at the parent of the PR that moved the spans onto the window,
	// on its serial path: four opens and two spans for each of 16 row groups.
	const parentGets, parentBytes, groups = 36, 520694, 16

	serial := New(newClient(svc), Config{}, refs...)
	want := collectScan(t, serial, proj, nil)

	var got []*columnar.Chunk
	var st Stats
	end := onKernel(t, func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.DoubleBuffer, cfg.ParallelFiles = false, 1
		src := New(s3.NewClient(svc, p), cfg, refs...)
		threads := runtime.NumGoroutine()
		err := src.Scan(proj, nil, func(c *columnar.Chunk) error {
			if n := runtime.NumGoroutine(); n != threads {
				t.Errorf("%d goroutines while scanning, %d before", n, threads)
			}
			got = append(got, c)
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		if n := runtime.NumGoroutine(); n != threads {
			t.Errorf("%d goroutines after the scan, %d before", n, threads)
		}
		st = src.Stats()
	})
	chunksIdentical(t, got, want)
	if st.BilledGets != parentGets || st.BilledBytes != parentBytes || st.RowGroupsRead != groups {
		t.Errorf("billed %d GETs, %d bytes for %d row groups; the serial scan bills %d, %d for %d",
			st.BilledGets, st.BilledBytes, st.RowGroupsRead, parentGets, parentBytes, groups)
	}
	if wantEnd := time.Duration(1+groups) * lat; end != wantEnd {
		t.Errorf("scan took %v, want %v: one latency for the footers and one per row group (%v with every request in turn)",
			end, wantEnd, parentGets*lat)
	}
}
