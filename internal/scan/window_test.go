package scan

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/s3fs"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// TestRequestLevelsRideTheWindowOnDES: a DES process scans four files with
// the default configuration, and levels 2 and 4 engage without a goroutine:
// the four footers cost one first-byte latency, and the spans s3fs.PlanSpans
// plans for all 16 row groups — their wanted bytes under payloadBreakEven, so
// one request window across the four files — cost ⌈spans / 16⌉ more, where
// they cost one each when read in turn; the requests, the bytes and the chunks
// are the serial scan's.
func TestRequestLevelsRideTheWindowOnDES(t *testing.T) {
	svc := s3.New(s3.Config{GetLatency: netmodel.Constant(lat)})
	refs, _ := uploadLineitemOpts(t, svc, 0.01, 4, lpq.WriterOptions{RowGroupRows: 4000, PageRows: 512})
	proj := []string{"l_orderkey", "l_shipdate"}
	// Recorded at the parent of the change that moved the spans onto the
	// window, on its serial path: four opens and two spans for each of 16 row
	// groups, 36 GETs and 520 694 bytes. 20 GETs and 1 896 635 bytes since a
	// span carries up to s3fs.DefaultCoalesceGap dead bytes in total, whatever
	// share of it they are: each group's two far-apart columns are one span,
	// the hole between them fetched for free.
	const serialGets, serialBytes, groups = 20, 1896635, 16

	serial := New(newClient(svc), Config{}, refs...)
	want := collectScan(t, serial, proj, nil)

	var got []*columnar.Chunk
	var st Stats
	end := onKernel(t, func(p *simclock.Proc) {
		src := New(s3.NewClient(svc, p), DefaultConfig(), refs...)
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
	if st.BilledGets != serialGets || st.BilledBytes != serialBytes || st.RowGroupsRead != groups {
		t.Errorf("billed %d GETs, %d bytes for %d row groups; the serial scan bills %d, %d for %d",
			st.BilledGets, st.BilledBytes, st.RowGroupsRead, serialGets, serialBytes, groups)
	}
	// 17 latencies when every row group had a window of its own; 3, 120 ms,
	// when each group was two spans.
	const lanes = 16
	gets, _ := groupSpans(t, serial, proj)
	var spans int64
	for _, n := range gets {
		spans += n
	}
	if wantEnd := time.Duration(1+(spans+lanes-1)/lanes) * lat; end != wantEnd {
		t.Errorf("scan took %v, want %v: one latency for the footers and ⌈%d spans / %d lanes⌉ for the one data window (%v with every request in turn)",
			end, wantEnd, spans, lanes, serialGets*lat)
	}
}

// uploadGroups writes each chunk as a file of two row groups (halves of it)
// into a service whose GETs take exactly lat, and returns the refs.
func uploadGroups(t *testing.T, svc *s3.Service, parts []*columnar.Chunk, groupRows func(*columnar.Chunk) int) []FileRef {
	t.Helper()
	svc.MustCreateBucket("data")
	var refs []FileRef
	for i, part := range parts {
		raw, err := lpq.WriteFile(part.Schema, lpq.WriterOptions{RowGroupRows: groupRows(part)}, part)
		if err != nil {
			t.Fatal(err)
		}
		ref := FileRef{Bucket: "data", Key: fmt.Sprintf("w/part-%d.lpq", i)}
		if err := svc.Put(simenv.NewImmediate(), ref.Bucket, ref.Key, raw); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	return refs
}

// groupSpans returns each row group's first-window GETs and bytes as
// s3fs.PlanSpans plans them for a scan of proj without a filter: its projected
// column chunks, coalesced within the group alone. The row groups are listed
// file by file.
func groupSpans(t *testing.T, src *Source, proj []string) (gets, bytes []int64) {
	t.Helper()
	for _, f := range src.Files {
		meta, _, err := src.open(f)
		if err != nil {
			t.Fatal(err)
		}
		for g := range meta.RowGroups {
			var ranges []s3fs.Range
			for _, name := range proj {
				cc := meta.RowGroups[g].Columns[meta.Schema.Index(name)]
				ranges = append(ranges, s3fs.Range{Off: cc.Offset, Len: cc.CompressedLen})
			}
			spans := s3fs.PlanSpans(ranges, s3fs.DefaultCoalesceGap)
			var n int64
			for _, s := range spans {
				n += s.Len
			}
			gets, bytes = append(gets, int64(len(spans))), append(bytes, n)
		}
	}
	return gets, bytes
}

// TestWindowSpansGroupsAndFiles: two files of two row groups each, their
// projected columns far under payloadBreakEven, cost one first-byte latency
// after the footers —
// not four, one per row group — and every group is yielded, in file order,
// when that one window has landed. The GETs and bytes are each row group's
// own spans, summed: the window moves the clock and nothing else.
func TestWindowSpansGroupsAndFiles(t *testing.T) {
	svc := s3.New(s3.Config{GetLatency: netmodel.Constant(lat)})
	data := tpch.Gen{SF: 0.001, Seed: 9}.Generate()
	refs := uploadGroups(t, svc, data.Split(2), func(c *columnar.Chunk) int { return (c.NumRows() + 1) / 2 })
	proj := []string{"l_orderkey", "l_extendedprice"}
	want := collectScan(t, New(newClient(svc), Config{}, refs...), proj, nil)

	var got []*columnar.Chunk
	var yieldedAt []time.Duration
	var st, opened Stats
	var gets, bytes []int64
	end := onKernel(t, func(p *simclock.Proc) {
		src := New(s3.NewClient(svc, p), Config{}, refs...)
		if err := OpenAll(src); err != nil {
			t.Error(err)
			return
		}
		opened = src.Stats()
		gets, bytes = groupSpans(t, src, proj)
		err := src.Scan(proj, nil, func(c *columnar.Chunk) error {
			yieldedAt = append(yieldedAt, p.Now())
			got = append(got, c)
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		st = src.Stats()
	})
	chunksIdentical(t, got, want)
	if len(gets) != 4 || len(got) != 4 {
		t.Fatalf("%d row groups, %d yielded: want two files of two", len(gets), len(got))
	}
	var wantGets, wantBytes int64
	for g := range gets {
		wantGets, wantBytes = wantGets+gets[g], wantBytes+bytes[g]
		if yieldedAt[g] != 2*lat {
			t.Errorf("row group %d yielded at %v, want %v: the footers' latency and the one window's", g, yieldedAt[g], 2*lat)
		}
	}
	if end != 2*lat {
		t.Errorf("scan took %v, want %v (%v with a window per row group)", end, 2*lat, 5*lat)
	}
	if wantBytes > payloadBreakEven {
		t.Fatalf("%d bytes, past the break-even — test premise broken", wantBytes)
	}
	if g, b := st.BilledGets-opened.BilledGets, st.BilledBytes-opened.BilledBytes; g != wantGets || b != wantBytes {
		t.Errorf("billed %d GETs, %d bytes; the row groups' own spans are %d, %d", g, b, wantGets, wantBytes)
	}
}

// floatGroups is one file of three row groups of one random Float64 column,
// each 2/5 of payloadBreakEven: eight bytes a value that Plain keeps as they
// are, so that two groups' reads add up to under the break-even and three to
// over it.
func floatGroups(t *testing.T, svc *s3.Service) []FileRef {
	t.Helper()
	rows := int(payloadBreakEven * 2 / 5 / 8)
	c := columnar.NewChunk(columnar.NewSchema(columnar.Field{Name: "p", Type: columnar.Float64}), 3*rows)
	rng := rand.New(rand.NewSource(3))
	for range 3 * rows {
		c.Columns[0].AppendFloat64(rng.Float64())
	}
	return uploadGroups(t, svc, []*columnar.Chunk{c}, func(*columnar.Chunk) int { return rows })
}

// TestWindowSplitsPastBreakEven: three row groups whose reads are 2/5 of
// payloadBreakEven each take exactly two windows — the first two groups in
// one, at most the break-even, the third in the next — so the groups are
// yielded at 2·lat, 2·lat and 3·lat after the open's latency.
func TestWindowSplitsPastBreakEven(t *testing.T) {
	svc := s3.New(s3.Config{GetLatency: netmodel.Constant(lat)})
	refs := floatGroups(t, svc)
	_, bytes := groupSpans(t, New(newClient(svc), Config{}, refs...), []string{"p"})
	if len(bytes) != 3 || bytes[0]+bytes[1] > payloadBreakEven || bytes[0]+bytes[1]+bytes[2] <= payloadBreakEven {
		t.Fatalf("row group reads %v, break-even %d — test premise broken", bytes, payloadBreakEven)
	}
	var yieldedAt []time.Duration
	var st Stats
	onKernel(t, func(p *simclock.Proc) {
		src := New(s3.NewClient(svc, p), Config{}, refs...)
		err := src.Scan(nil, nil, func(*columnar.Chunk) error {
			yieldedAt = append(yieldedAt, p.Now())
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		st = src.Stats()
	})
	if want := []time.Duration{2 * lat, 2 * lat, 3 * lat}; !reflect.DeepEqual(yieldedAt, want) {
		t.Errorf("row groups yielded at %v, want %v: two windows, the first two groups in one", yieldedAt, want)
	}
	if st.BilledGets != 1+3 {
		t.Errorf("billed %d GETs, want the open and one per row group", st.BilledGets)
	}
}

// TestLimitBillsOneWindow: a LIMIT that the first row group satisfies stops
// the scan after it, and the scan has billed exactly its one window: the
// open, and the first two groups' one GET each, which share the window. The
// second group's read is the trade (ScanFiltered); the third group, a window
// of its own, is never fetched.
func TestLimitBillsOneWindow(t *testing.T) {
	meter := pricing.NewCostMeter()
	svc := s3.New(s3.Config{Meter: meter})
	refs := floatGroups(t, svc)
	src := New(newClient(svc), Config{}, refs...)
	out, err := engine.Execute(&engine.LimitPlan{N: 10, In: &engine.ScanPlan{Table: "t"}}, engine.Catalog{"t": src})
	if err != nil {
		t.Fatal(err)
	}
	const limitGets = 3 // the open + the first window's two; a full scan bills 4
	_, bytes := groupSpans(t, src, []string{"p"})
	st := src.Stats()
	if out.NumRows() != 10 || st.BilledGets != limitGets ||
		st.BilledBytes-src.openBytes != bytes[0]+bytes[1] {
		t.Errorf("LIMIT 10: %d rows, billed %d GETs and %d data bytes; want 10 rows, %d GETs and the first two groups' %d bytes",
			out.NumRows(), st.BilledGets, st.BilledBytes-src.openBytes, limitGets, bytes[0]+bytes[1])
	}
	if n := meter.Count(pricing.LabelS3Read); n != limitGets {
		t.Errorf("the service billed %d S3 reads, want %d", n, limitGets)
	}
}
