package s3fs

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/simclock"
)

func TestPlanSpansMerging(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ranges []Range
		gap    int64
		want   []Span
	}{
		{
			name:   "adjacent merge at gap zero",
			ranges: []Range{{0, 10}, {10, 10}},
			gap:    0,
			want:   []Span{{Off: 0, Len: 20, Ranges: []int{0, 1}}},
		},
		{
			name:   "small hole merges within gap",
			ranges: []Range{{0, 100}, {104, 100}},
			gap:    8,
			want:   []Span{{Off: 0, Len: 204, Ranges: []int{0, 1}}},
		},
		{
			name:   "hole beyond gap splits",
			ranges: []Range{{0, 100}, {200, 100}},
			gap:    8,
			want: []Span{
				{Off: 0, Len: 100, Ranges: []int{0}},
				{Off: 200, Len: 100, Ranges: []int{1}},
			},
		},
		{
			name:   "negative gap never merges",
			ranges: []Range{{0, 10}, {10, 10}},
			gap:    -1,
			want: []Span{
				{Off: 0, Len: 10, Ranges: []int{0}},
				{Off: 10, Len: 10, Ranges: []int{1}},
			},
		},
		{
			name:   "out of order inputs are sorted",
			ranges: []Range{{50, 10}, {0, 10}, {60, 5}},
			gap:    0,
			want: []Span{
				{Off: 0, Len: 10, Ranges: []int{1}},
				{Off: 50, Len: 15, Ranges: []int{0, 2}},
			},
		},
		{
			name:   "zero length ranges dropped",
			ranges: []Range{{0, 0}, {5, 10}, {20, 0}},
			gap:    100,
			want:   []Span{{Off: 5, Len: 10, Ranges: []int{1}}},
		},
		{
			name:   "overlapping ranges collapse",
			ranges: []Range{{0, 20}, {10, 20}},
			gap:    0,
			want:   []Span{{Off: 0, Len: 30, Ranges: []int{0, 1}}},
		},
		{
			// Waste bound: a 20-byte hole against 40 useful bytes is 33%
			// overhead — over the 1/8 cap, so the span splits even though
			// the hole fits the gap.
			name:   "waste-bounded split",
			ranges: []Range{{0, 20}, {40, 20}},
			gap:    1 << 20,
			want: []Span{
				{Off: 0, Len: 20, Ranges: []int{0}},
				{Off: 40, Len: 20, Ranges: []int{1}},
			},
		},
		{
			// Same hole against enough payload merges: 20/1044 < 1/8.
			name:   "waste within bound merges",
			ranges: []Range{{0, 1000}, {1020, 24}},
			gap:    1 << 20,
			want:   []Span{{Off: 0, Len: 1044, Ranges: []int{0, 1}}},
		},
		{
			// Accumulated waste is capped across a chain of merges, not
			// only per hole: the first 100-byte hole fits (100/1200), the
			// second would push total holes to 200 of 1400 — over 1/8 —
			// so the chain breaks there.
			name:   "accumulated waste splits the chain",
			ranges: []Range{{0, 1000}, {1100, 100}, {1300, 100}, {1500, 100}},
			gap:    1 << 20,
			want: []Span{
				{Off: 0, Len: 1200, Ranges: []int{0, 1}},
				{Off: 1300, Len: 100, Ranges: []int{2}},
				{Off: 1500, Len: 100, Ranges: []int{3}},
			},
		},
	} {
		got := PlanSpans(tc.ranges, tc.gap)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: PlanSpans = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// Property: spans cover every input range exactly once, in offset order.
func TestPropertyPlanSpansSound(t *testing.T) {
	f := func(offs []uint16, lens []uint8, gapRaw uint8) bool {
		n := len(offs)
		if len(lens) < n {
			n = len(lens)
		}
		ranges := make([]Range, n)
		for i := 0; i < n; i++ {
			ranges[i] = Range{Off: int64(offs[i]), Len: int64(lens[i])}
		}
		gap := int64(gapRaw)
		spans := PlanSpans(ranges, gap)
		seen := map[int]bool{}
		var prevEnd int64 = -1
		for _, s := range spans {
			if s.Off <= prevEnd {
				return false // spans must not touch or overlap
			}
			prevEnd = s.Off + s.Len
			for _, i := range s.Ranges {
				r := ranges[i]
				if seen[i] || r.Len == 0 {
					return false
				}
				seen[i] = true
				if r.Off < s.Off || r.Off+r.Len > s.Off+s.Len {
					return false // range not covered by its span
				}
			}
		}
		for i, r := range ranges {
			if r.Len > 0 && !seen[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReadRangesCoalesces(t *testing.T) {
	data := make([]byte, 4000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	f := setup(t, data)

	ranges := []Range{{0, 500}, {510, 500}, {2000, 100}, {3900, 100}}
	before := f.Requests()
	got, err := f.ReadRanges(ranges, 64)
	if err != nil {
		t.Fatal(err)
	}
	// {0,500} and {510,500} merge (10-byte hole); the others stand alone.
	if n := f.Requests() - before; n != 3 {
		t.Errorf("coalesced read took %d requests, want 3", n)
	}
	for i, r := range ranges {
		if !bytes.Equal(got[i], data[r.Off:r.Off+r.Len]) {
			t.Errorf("range %d content mismatch", i)
		}
	}
	if f.BytesRead() == 0 {
		t.Error("BytesRead not counted")
	}

	// The same ranges uncoalesced take one request each.
	before = f.Requests()
	if _, err := f.ReadRanges(ranges, -1); err != nil {
		t.Fatal(err)
	}
	if n := f.Requests() - before; n != 4 {
		t.Errorf("uncoalesced read took %d requests, want 4", n)
	}
}

func TestReadRangesTruncation(t *testing.T) {
	f := setup(t, make([]byte, 100))
	if _, err := f.ReadRanges([]Range{{90, 50}}, 0); err == nil {
		t.Error("range past EOF read without error")
	}
}

// TestReadRangesShareOneWindow: on a DES kernel against S3's measured
// latencies, the spans of one ReadRanges are in flight together. Two services
// on one seed draw the same three latencies in request order; one caller
// takes the ranges one ReadRange at a time and notes each request's duration,
// the other asks for them in one ReadRanges, which must return the same
// bytes for the same three billed GETs at the instant the slowest of those
// requests ends — not at the sum the first caller pays.
func TestReadRangesShareOneWindow(t *testing.T) {
	data := make([]byte, 3<<20)
	for i := range data {
		data[i] = byte(i % 251)
	}
	ranges := []Range{{0, 1000}, {1 << 20, 1000}, {2 << 20, 1000}}
	// run reads the ranges on a fresh service and kernel and returns the
	// bytes, the instant after each step of read, and the GETs billed.
	run := func(read func(f *File, mark func()) [][]byte) (got [][]byte, marks []time.Duration, gets int64) {
		meter := pricing.NewCostMeter()
		svc := s3.New(s3.DefaultAWSConfig(meter, 7))
		svc.MustCreateBucket("b")
		if err := svc.Put(simenv.NewImmediate(), "b", "k", data); err != nil {
			t.Fatal(err)
		}
		gets = -meter.Count(pricing.LabelS3Read)
		k := simclock.New()
		k.Go("reader", func(p *simclock.Proc) {
			f := NewFile(s3.NewClient(svc, p), "b", "k", int64(len(data)))
			got = read(f, func() { marks = append(marks, p.Now()) })
		})
		k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		return got, marks, gets + meter.Count(pricing.LabelS3Read)
	}

	want, ends, serialGets := run(func(f *File, mark func()) [][]byte {
		out := make([][]byte, len(ranges))
		for i, r := range ranges {
			buf, err := f.ReadRange(r.Off, r.Len)
			if err != nil {
				t.Error(err)
			}
			out[i] = buf
			mark()
		}
		return out
	})
	var slowest, prev time.Duration
	for _, end := range ends {
		slowest = max(slowest, end-prev)
		prev = end
	}
	sum := prev

	got, ends, gets := run(func(f *File, mark func()) [][]byte {
		out, err := f.ReadRanges(ranges, -1)
		if err != nil {
			t.Error(err)
		}
		mark()
		return out
	})
	if !reflect.DeepEqual(got, want) {
		t.Error("ReadRanges returned other bytes than three ReadRange calls")
	}
	if gets != 3 || serialGets != 3 {
		t.Errorf("billed GETs = %d through the window, %d in turn, want 3 and 3", gets, serialGets)
	}
	if ends[0] != slowest || slowest >= sum {
		t.Errorf("three spans took %v, want the slowest request's %v (%v in turn)", ends[0], slowest, sum)
	}
}
