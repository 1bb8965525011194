package obs

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// criticalPathReference is the quadratic CriticalPath the sweep replaced,
// kept verbatim as the specification: every segment rescans every span.
func criticalPathReference(spans []Span, root SpanID) []CriticalSegment {
	if root <= 0 || int(root) > len(spans) {
		return nil
	}
	rs := spans[root-1]
	if rs.End <= rs.Start {
		return nil
	}

	// Subtree membership (excluding the root itself).
	children := make(map[SpanID][]SpanID, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	member := make(map[SpanID]bool, len(spans))
	var walk func(SpanID)
	walk = func(id SpanID) {
		for _, ch := range children[id] {
			member[ch] = true
			walk(ch)
		}
	}
	walk(root)

	var segs []CriticalSegment
	cur := rs.End
	for cur > rs.Start {
		// Best candidate: active before cur, reaching furthest toward
		// cur; prefer the latest-starting (most specific) span, then the
		// highest ID, so the choice is deterministic.
		var best *Span
		var bestEff time.Duration
		for i := range spans {
			s := &spans[i]
			if !member[s.ID] || s.End <= s.Start {
				continue
			}
			if s.Start >= cur || s.End <= rs.Start {
				continue
			}
			eff := s.End
			if eff > cur {
				eff = cur
			}
			if best == nil || eff > bestEff ||
				(eff == bestEff && (s.Start > best.Start || (s.Start == best.Start && s.ID > best.ID))) {
				best, bestEff = s, eff
			}
		}
		if best == nil {
			segs = append(segs, CriticalSegment{Span: root, From: rs.Start, To: cur})
			break
		}
		if bestEff < cur {
			// Nothing covered (bestEff, cur): root-attributed gap.
			segs = append(segs, CriticalSegment{Span: root, From: bestEff, To: cur})
			cur = bestEff
			continue
		}
		from := best.Start
		if from < rs.Start {
			from = rs.Start
		}
		segs = append(segs, CriticalSegment{Span: best.ID, From: from, To: cur})
		cur = from
	}

	// Backward sweep emitted latest-first; return chronological.
	sort.Slice(segs, func(i, j int) bool { return segs[i].From < segs[j].From })
	return segs
}

// randomForest draws a span forest on a coarse time grid, so equal starts,
// equal ends, zero-length and never-ended spans, gaps, spans outside their
// parent's extent (and the root's) and unrelated trees all occur.
func randomForest(rng *rand.Rand) []Span {
	n := 1 + rng.Intn(40)
	spans := make([]Span, n)
	for i := range spans {
		start := time.Duration(rng.Intn(24))
		s := Span{ID: SpanID(i + 1), Start: start, End: start + time.Duration(rng.Intn(10))}
		switch rng.Intn(12) {
		case 0:
			s.End = 0 // never ended
		case 1:
			s.End = start // zero length
		}
		if i > 0 && rng.Intn(8) > 0 {
			s.Parent = SpanID(1 + rng.Intn(i)) // else: another tree's root
		}
		spans[i] = s
	}
	return spans
}

// TestCriticalPathMatchesReference: the sweep selects the same spans with
// the same tie-breaks as the quadratic reference — equal segments on
// seeded random forests, from every span taken as the root.
func TestCriticalPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	paths := 0
	for f := 0; f < 400; f++ {
		spans := randomForest(rng)
		for root := SpanID(0); int(root) <= len(spans)+1; root++ {
			want := criticalPathReference(spans, root)
			got := CriticalPath(spans, root)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("forest %d (%d spans) root %d:\n got  %+v\n want %+v", f, len(spans), root, got, want)
			}
			if len(want) > 1 {
				paths++
			}
		}
	}
	if paths < 1000 {
		t.Errorf("only %d multi-segment paths compared; the generator lost its coverage", paths)
	}
}
