package scan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/simclock"
)

// TestPinShipsTheStoredTrailer: a pinned ref carries the object's size and
// its last footerLen+8 bytes, byte for byte — a footer inside the open's
// guess and one longer than it alike — and pinning what a source opened
// costs no request, even once the session's table has been dropped.
func TestPinShipsTheStoredTrailer(t *testing.T) {
	var short, long bool
	for _, opts := range []lpq.WriterOptions{{RowGroupRows: 2000}, {RowGroupRows: 64, PageRows: 16}} {
		meter := pricing.NewCostMeter()
		svc := s3.New(s3.Config{Meter: meter})
		refs, _ := uploadLineitemOpts(t, svc, 0.002, 2, opts)
		src := New(newClient(svc), DefaultConfig(), refs...)
		src.Footers = NewFooters()
		if err := OpenAll(src); err != nil {
			t.Fatal(err)
		}
		src.Footers.Drop()
		before := meter.Count(pricing.LabelS3Read)
		pinned, err := src.Pin(refs)
		if err != nil {
			t.Fatal(err)
		}
		if n := meter.Count(pricing.LabelS3Read) - before; n != 0 {
			t.Errorf("pinning opened files billed %d S3 reads", n)
		}
		for _, f := range pinned {
			raw, _, err := svc.Get(simenv.NewImmediate(), f.Bucket, f.Key)
			if err != nil {
				t.Fatal(err)
			}
			trailer := int(binary.LittleEndian.Uint32(raw[len(raw)-8:])) + 8
			short, long = short || trailer <= lpq.FooterGuess, long || trailer > lpq.FooterGuess
			if f.Size != int64(len(raw)) || !bytes.Equal(f.Footer, raw[len(raw)-trailer:]) {
				t.Errorf("%s: pinned %d bytes of a %d-byte object, want its last %d of %d exactly",
					f.Key, len(f.Footer), f.Size, trailer, len(raw))
			}
		}
	}
	if !short || !long {
		t.Errorf("footers within the guess: %v, beyond it: %v — want both", short, long)
	}
}

// TestPinnedSourceBillsOnlyData: a source over pinned refs decodes their
// footers without a request and bills, scanning, exactly the data GETs and
// bytes a source that opens its own files bills beyond its opens — the same
// rows, and nothing reaches the service that its counters do not show.
func TestPinnedSourceBillsOnlyData(t *testing.T) {
	proj := []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}
	meter := pricing.NewCostMeter()
	svc := s3.New(s3.Config{Meter: meter})
	refs, _ := uploadLineitemOpts(t, svc, 0.01, 4, lpq.WriterOptions{RowGroupRows: 4000, PageRows: 512})

	opening := New(newClient(svc), DefaultConfig(), refs...)
	want := collectRows(t, mustSchema(t, opening, proj), func(yield func(*columnar.Chunk) error) error {
		return opening.ScanFiltered(proj, q6Preds(), q6Filter(), yield)
	})
	ref := opening.Stats()
	if opening.openGets < int64(len(refs)) {
		t.Fatalf("the opening source billed %d opens for %d files", opening.openGets, len(refs))
	}
	pinned, err := opening.Pin(refs)
	if err != nil {
		t.Fatal(err)
	}

	before := meter.Count(pricing.LabelS3Read)
	srcs, err := Pinned(newClient(svc), 0, pinned)
	if err != nil {
		t.Fatal(err)
	}
	src := srcs[0]
	if n := meter.Count(pricing.LabelS3Read) - before; n != 0 {
		t.Fatalf("Pinned billed %d S3 reads", n)
	}
	got := collectRows(t, want.Schema, func(yield func(*columnar.Chunk) error) error {
		return src.ScanFiltered(proj, q6Preds(), q6Filter(), yield)
	})
	requireIdentical(t, "pinned vs opening source", got, want)
	st := src.Stats()
	if src.openGets != 0 || src.openBytes != 0 {
		t.Errorf("the pinned source billed %d opens (%d bytes)", src.openGets, src.openBytes)
	}
	if st.BilledGets != ref.BilledGets-opening.openGets || st.BilledBytes != ref.BilledBytes-opening.openBytes {
		t.Errorf("pinned scan billed %d GETs, %d bytes; want the opening scan's %d, %d less its opens' %d, %d",
			st.BilledGets, st.BilledBytes, ref.BilledGets, ref.BilledBytes, opening.openGets, opening.openBytes)
	}
	if n := meter.Count(pricing.LabelS3Read) - before; n != st.BilledGets {
		t.Errorf("the service billed %d S3 reads, the source counts %d", n, st.BilledGets)
	}
}

// TestPinnedBoundRefusesBeforeFetch: a pinned source refuses a row group whose
// rows × projected widths are past its bound from the footer alone — typed,
// and before any GET — and scans one exactly at its bound.
func TestPinnedBoundRefusesBeforeFetch(t *testing.T) {
	const groupRows = 4000
	proj := []string{"l_orderkey", "l_discount"} // 16 bytes a row
	meter := pricing.NewCostMeter()
	svc := s3.New(s3.Config{Meter: meter})
	refs, _ := uploadLineitemOpts(t, svc, 0.002, 1, lpq.WriterOptions{RowGroupRows: groupRows})
	pinned, err := New(newClient(svc), DefaultConfig(), refs...).Pin(refs)
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []int64{16*groupRows - 1, 16 * groupRows} {
		srcs, err := Pinned(newClient(svc), bound, pinned)
		if err != nil {
			t.Fatal(err)
		}
		src := srcs[0]
		before := meter.Count(pricing.LabelS3Read)
		err = src.Scan(proj, nil, func(*columnar.Chunk) error { return nil })
		gets := meter.Count(pricing.LabelS3Read) - before
		switch refused := errors.Is(err, lpq.ErrOverBound); {
		case bound < 16*groupRows && (!refused || gets != 0):
			t.Errorf("bound %d: err = %v after %d GETs, want lpq.ErrOverBound before any", bound, err, gets)
		case bound == 16*groupRows && (err != nil || gets == 0):
			t.Errorf("bound %d: err = %v after %d GETs, want the groups scanned", bound, err, gets)
		}
	}
}

// TestPinnedTablesShareTheFirstWindow: the sources of one Pinned call, each
// told the scan it will run (Expect), fetch their first request windows
// together at the first scan of either: two one-file tables scanned one
// after the other on DES take one first-byte latency, where the same sources
// without an expectation take one each. The rows, GETs and bytes are the
// separate scans'. A scan that asks for something other than its source
// expects still reads its rows.
func TestPinnedTablesShareTheFirstWindow(t *testing.T) {
	proj := []string{"l_orderkey", "l_partkey"} // adjacent: a span a row group
	meter := pricing.NewCostMeter()
	svc := s3.New(s3.Config{Meter: meter, GetLatency: netmodel.Constant(lat)})
	refs, _ := uploadLineitemOpts(t, svc, 0.002, 2, lpq.WriterOptions{RowGroupRows: 2000})
	pinned, err := New(newClient(svc), DefaultConfig(), refs...).Pin(refs)
	if err != nil {
		t.Fatal(err)
	}
	tables := [][]FileRef{pinned[:1], pinned[1:]}
	var want []*columnar.Chunk
	var wantGets, wantBytes int64
	for _, files := range tables {
		srcs, err := Pinned(newClient(svc), 0, files)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, collectScan(t, srcs[0], proj, nil)...)
		st := srcs[0].Stats()
		wantGets, wantBytes = wantGets+st.BilledGets, wantBytes+st.BilledBytes
	}

	for _, expect := range []bool{true, false} {
		var got []*columnar.Chunk
		var gets, bytes int64
		took := onKernel(t, func(p *simclock.Proc) {
			srcs, err := Pinned(s3.NewClient(svc, p), 0, tables...)
			if err != nil {
				t.Error(err)
				return
			}
			for _, src := range srcs {
				if expect {
					src.Expect(proj, nil, nil)
				}
			}
			for _, src := range srcs {
				got = append(got, collectScan(t, src, proj, nil)...)
				st := src.Stats()
				gets, bytes = gets+st.BilledGets, bytes+st.BilledBytes
			}
		})
		chunksIdentical(t, got, want)
		if gets != wantGets || bytes != wantBytes {
			t.Errorf("expect=%t: billed %d GETs, %d bytes; the separate scans %d, %d", expect, gets, bytes, wantGets, wantBytes)
		}
		if windows := map[bool]time.Duration{true: 1, false: 2}[expect]; took != windows*lat {
			t.Errorf("expect=%t: the two scans took %v, want %d first-byte latencies of %v", expect, took, windows, lat)
		}
	}

	srcs, err := Pinned(newClient(svc), 0, tables...)
	if err != nil {
		t.Fatal(err)
	}
	srcs[0].Expect(proj, nil, nil)
	srcs[1].Expect(proj[:1], nil, nil)
	got := collectScan(t, srcs[0], proj, nil)
	got = append(got, collectScan(t, srcs[1], proj, nil)...)
	chunksIdentical(t, got, want)
}

// TestHoldReadsAGroupInOneGet: a held source — a build side — reads what an
// unheld one reads: each row group of a scan without a filter is one GET over
// its projected column chunks, holes included, since the holes between two
// far-apart columns stay within s3fs.DefaultCoalesceGap; the rows are the
// same. Hold counts what the scan keeps, rows × projected widths from the
// footers, and refuses one byte less with lpq.ErrOverBound before any request.
func TestHoldReadsAGroupInOneGet(t *testing.T) {
	proj := []string{"l_orderkey", "l_shipdate"} // 16 bytes a row, far apart
	meter := pricing.NewCostMeter()
	svc := s3.New(s3.Config{Meter: meter})
	refs, data := uploadLineitemOpts(t, svc, 0.002, 2, lpq.WriterOptions{RowGroupRows: 2000})
	pinned, err := New(newClient(svc), DefaultConfig(), refs...).Pin(refs)
	if err != nil {
		t.Fatal(err)
	}
	bind := func() *Source {
		srcs, err := Pinned(newClient(svc), 0, pinned)
		if err != nil {
			t.Fatal(err)
		}
		return srcs[0]
	}
	plain := bind()
	want := collectScan(t, plain, proj, nil)
	gets, _ := groupSpans(t, plain, proj)
	groups := int64(len(gets))
	if st := plain.Stats(); st.BilledGets != groups {
		t.Fatalf("an unheld scan billed %d GETs for %d row groups, want one each", st.BilledGets, groups)
	}

	rows := int64(data.NumRows())
	before := meter.Count(pricing.LabelS3Read)
	if _, err := bind().Hold(proj, nil, 16*rows-1); !errors.Is(err, lpq.ErrOverBound) {
		t.Errorf("held under its %d bytes: err = %v, want lpq.ErrOverBound", 16*rows, err)
	}
	held := bind()
	if n, err := held.Hold(proj, nil, 16*rows); err != nil || n != 16*rows {
		t.Fatalf("Hold = %d, %v; want %d", n, err, 16*rows)
	}
	if n := meter.Count(pricing.LabelS3Read) - before; n != 0 {
		t.Errorf("Hold billed %d S3 reads", n)
	}
	chunksIdentical(t, collectScan(t, held, proj, nil), want)
	if st, unheld := held.Stats(), plain.Stats(); st.BilledGets != unheld.BilledGets || st.BilledBytes != unheld.BilledBytes {
		t.Errorf("the held scan billed %d GETs, %d bytes; the unheld one %d, %d — want the same",
			st.BilledGets, st.BilledBytes, unheld.BilledGets, unheld.BilledBytes)
	}
}
