package s3fs

import (
	"fmt"
	"sort"

	"lambada/internal/awssim/s3"
)

// Range coalescing: merging near-adjacent column-chunk and page ranges into
// one billed GET each. S3 bills per request plus per byte; when two wanted
// ranges are separated by a gap smaller than the per-request overhead is
// worth, fetching the gap as dead bytes inside one larger request is
// strictly cheaper (the trade-off Figure 7 quantifies). PlanSpans computes
// the merged spans, ReadRanges executes them.

// DefaultCoalesceGap is the largest hole (in bytes) merged into one request
// (128 KiB — at S3's modeled per-request cost, dead bytes below this are
// cheaper than the extra GET).
const DefaultCoalesceGap = 128 << 10

// Range identifies a wanted byte range [Off, Off+Len).
type Range struct {
	Off, Len int64
}

// Span is one planned GET covering [Off, Off+Len); Ranges indexes the input
// ranges it satisfies.
type Span struct {
	Off, Len int64
	Ranges   []int
}

// PlanSpans merges ranges whose gaps are at most gap bytes into single
// spans. Merging is waste-bounded: a span swallows a hole only while its
// accumulated holes stay at or under 1/8th of the resulting span, so each
// saved GET is bought with at most 12.5% billed overhead — without the
// bound, a span could chain many small holes and end up billing more dead
// bytes than the uncoalesced reads, inverting the cost trade. A negative
// gap disables merging entirely (one span per range, in offset order);
// gap 0 merges only exactly-adjacent or overlapping ranges. Zero-length
// ranges are dropped.
func PlanSpans(ranges []Range, gap int64) []Span {
	idx := make([]int, 0, len(ranges))
	for i, r := range ranges {
		if r.Len > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := ranges[idx[a]], ranges[idx[b]]
		if ra.Off != rb.Off {
			return ra.Off < rb.Off
		}
		return ra.Len < rb.Len
	})
	var spans []Span
	var waste int64 // holes accumulated in the last span
	for _, i := range idx {
		r := ranges[i]
		if len(spans) > 0 && gap >= 0 {
			s := &spans[len(spans)-1]
			hole := r.Off - (s.Off + s.Len)
			if hole < 0 {
				hole = 0
			}
			newLen := s.Len
			if end := r.Off + r.Len; end > s.Off+s.Len {
				newLen = end - s.Off
			}
			if hole <= gap && (waste+hole)*8 <= newLen {
				s.Len = newLen
				s.Ranges = append(s.Ranges, i)
				waste += hole
				continue
			}
		}
		spans = append(spans, Span{Off: r.Off, Len: r.Len, Ranges: []int{i}})
		waste = 0
	}
	return spans
}

// Cut slices the span's fetched bytes back into the per-range views the
// caller asked for, writing them into out (indexed like ranges). buf must
// hold the span's bytes starting at s.Off. The views alias buf.
func (s *Span) Cut(buf []byte, ranges []Range, out [][]byte) {
	for _, i := range s.Ranges {
		r := ranges[i]
		lo := r.Off - s.Off
		out[i] = buf[lo : lo+r.Len]
	}
}

// ReadRanges fetches every range, coalescing ranges separated by at most
// gap bytes into one GET each (gap 0 means DefaultCoalesceGap; negative
// disables coalescing). The spans share one request window of the handle's
// client (s3.Client.Overlap): they are issued in offset order and pay their
// first-byte latencies together, not one after another — the scan's
// concurrency level 2 (§4.3.2), on either clock and without a goroutine. The
// returned slices are indexed like ranges; slices of one span alias one
// buffer.
func (f *File) ReadRanges(ranges []Range, gap int64) ([][]byte, error) {
	if gap == 0 {
		gap = DefaultCoalesceGap
	}
	spans := PlanSpans(ranges, gap)
	out := make([][]byte, len(ranges))
	err := f.client.Overlap(len(spans), func(i int, lane *s3.Client) error {
		s := spans[i]
		buf, err := f.readRange(lane, s.Off, s.Len)
		if err != nil {
			return err
		}
		if int64(len(buf)) < s.Len {
			return fmt.Errorf("s3fs: span [%d,%d) of %s/%s truncated to %d bytes",
				s.Off, s.Off+s.Len, f.bucket, f.key, len(buf))
		}
		s.Cut(buf, ranges, out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
