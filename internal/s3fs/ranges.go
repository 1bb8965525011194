package s3fs

import (
	"fmt"
	"sort"

	"lambada/internal/awssim/s3"
)

// Range coalescing: merging near-adjacent column-chunk and page ranges into
// one billed GET each. S3 bills per request; transfer from S3 into Lambda in
// one region is free, so fetching the holes between wanted ranges as dead
// bytes inside one larger request trades a GET's price and first-byte latency
// for transfer time and memory alone (the trade Figure 7 quantifies).
// PlanSpans computes the merged spans, ReadWindow executes them.

// DefaultCoalesceGap is the most dead bytes one span carries, its holes
// summed (128 KiB): enough to fold a row group's column chunks into one GET,
// little enough to bound what each span adds to a worker's transfer time and
// memory.
const DefaultCoalesceGap = 128 << 10

// Range identifies a wanted byte range [Off, Off+Len).
type Range struct {
	Off, Len int64
}

// Span is one planned GET covering [Off, Off+Len); Ranges indexes the input
// ranges it satisfies, and Dead counts the bytes of the holes between them.
type Span struct {
	Off, Len, Dead int64
	Ranges         []int
}

// PlanSpans merges ranges into spans, in offset order: a span swallows the
// next range while the holes it has swallowed, summed, stay at or under gap
// bytes. Holes are not billed by the byte, so the rule buys no dead bytes with
// requests; it only bounds what a span costs in transfer time and memory. Gap
// 0 merges only touching or overlapping ranges. Zero-length ranges are
// dropped.
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
	for _, i := range idx {
		r := ranges[i]
		if len(spans) > 0 {
			s := &spans[len(spans)-1]
			if hole := max(r.Off-(s.Off+s.Len), 0); s.Dead+hole <= gap {
				s.Len = max(s.Len, r.Off+r.Len-s.Off)
				s.Ranges = append(s.Ranges, i)
				s.Dead += hole
				continue
			}
		}
		spans = append(spans, Span{Off: r.Off, Len: r.Len, Ranges: []int{i}})
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

// ReadRanges fetches every range of the file in one request window: the
// one-file case of ReadWindow. The returned slices are indexed like ranges.
func (f *File) ReadRanges(ranges []Range) ([][]byte, error) {
	out, err := ReadWindow(f.client, []Read{{File: f, Ranges: ranges}})
	return out[0], err
}

// Read is one read of a request window: ranges of one file.
type Read struct {
	File   *File
	Ranges []Range
}

// ReadWindow fetches every range of every read, each read's ranges coalesced
// into spans on their own (PlanSpans, up to DefaultCoalesceGap dead bytes a
// span), so a window bills what its reads would alone. All the spans share one
// request window of client (s3.Client.Overlap), issued in read and offset
// order: they pay their first-byte latencies together — level 2 (§4.3.2)
// across row groups and files, on either clock and without a goroutine. out[r]
// is indexed like reads[r].Ranges, and partly filled on error; slices of one
// span alias one buffer.
func ReadWindow(client *s3.Client, reads []Read) ([][][]byte, error) {
	var spans []Span
	var of []int // the read each span serves
	out := make([][][]byte, len(reads))
	for r, rd := range reads {
		out[r] = make([][]byte, len(rd.Ranges))
		for _, s := range PlanSpans(rd.Ranges, DefaultCoalesceGap) {
			spans, of = append(spans, s), append(of, r)
		}
	}
	err := client.Overlap(len(spans), func(i int, lane *s3.Client) error {
		s, f := spans[i], reads[of[i]].File
		buf, err := f.readRange(lane, s.Off, s.Len)
		if err != nil {
			return err
		}
		if int64(len(buf)) < s.Len {
			return fmt.Errorf("s3fs: span [%d,%d) of %s/%s truncated to %d bytes",
				s.Off, s.Off+s.Len, f.bucket, f.key, len(buf))
		}
		f.dead += s.Dead
		s.Cut(buf, reads[of[i]].Ranges, out[of[i]])
		return nil
	})
	return out, err
}
