package obs

import (
	"cmp"
	"container/heap"
	"slices"
	"time"
)

// CriticalSegment is one interval of the critical path: the most
// specific span that bounded end-to-end latency during [From, To).
// Intervals no recorded span covers are attributed to the root span
// itself (driver-side work between spans).
type CriticalSegment struct {
	Span SpanID
	From time.Duration
	To   time.Duration
}

// Duration is the segment's extent.
func (c CriticalSegment) Duration() time.Duration { return c.To - c.From }

// CriticalPath extracts the latency-bounding chain from a span tree: a
// sequence of segments that exactly tiles [root.Start, root.End] in
// chronological order. At every instant the chosen span is the deepest
// (latest-starting) span in root's subtree still active at that time,
// found by a backward sweep from root.End: repeatedly pick the span
// whose end reaches the current cursor, walk the cursor back to that
// span's start, and attribute uncovered gaps to the root.
//
// Because the segments tile the root interval by construction, their
// durations sum exactly to the root span's duration — the end-to-end
// virtual latency. This is the per-query signal a cost-based optimizer
// needs: shortening any span NOT on the critical path cannot improve
// latency.
func CriticalPath(spans []Span, root SpanID) []CriticalSegment {
	return NewTree(spans).CriticalPath(root)
}

// CriticalPath is the package-level CriticalPath on an indexed recording.
// Each span enters and leaves the sweep once: O(n log n).
func (t *Tree) CriticalPath(root SpanID) []CriticalSegment {
	if root <= 0 || int(root) > len(t.spans) {
		return nil
	}
	rs := t.spans[root-1]
	if rs.End <= rs.Start {
		return nil
	}

	// Candidates: root's proper descendants with an extent that reaches
	// into the root's interval, latest-ending first.
	var byEnd []*Span
	t.Walk(root, func(s *Span) {
		if s.ID != root && s.End > s.Start && s.End > rs.Start {
			byEnd = append(byEnd, s)
		}
	})
	slices.SortFunc(byEnd, func(a, b *Span) int { return cmp.Compare(b.End, a.End) })

	var segs []CriticalSegment
	var active latestStart // candidates whose End reaches the cursor
	next := 0              // byEnd[next:] end before the cursor
	cur := rs.End
	for cur > rs.Start {
		for ; next < len(byEnd) && byEnd[next].End >= cur; next++ {
			heap.Push(&active, byEnd[next])
		}
		// The cursor only moves back, so a span starting at or after it is
		// out for good.
		for len(active) > 0 && active[0].Start >= cur {
			heap.Pop(&active)
		}
		seg := CriticalSegment{Span: root, From: rs.Start, To: cur}
		switch {
		case len(active) > 0:
			// Of the spans active just before cur, the latest-starting
			// (most specific), then the highest ID.
			seg.Span, seg.From = active[0].ID, max(active[0].Start, rs.Start)
		case next < len(byEnd):
			// Nothing covers (End, cur): a root-attributed gap.
			seg.From = byEnd[next].End
		}
		segs = append(segs, seg)
		cur = seg.From
	}

	// Backward sweep emitted latest-first; return chronological.
	slices.Reverse(segs)
	return segs
}

// latestStart is a max-heap of spans on (Start, ID).
type latestStart []*Span

func (h latestStart) Len() int { return len(h) }
func (h latestStart) Less(i, j int) bool {
	return h[i].Start > h[j].Start || (h[i].Start == h[j].Start && h[i].ID > h[j].ID)
}
func (h latestStart) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *latestStart) Push(x any)   { *h = append(*h, x.(*Span)) }
func (h *latestStart) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
