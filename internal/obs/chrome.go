package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// chromeEvent is one Chrome trace-event ("X" complete event). Field
// order and map-key order are fixed (encoding/json sorts map keys), so
// under DES the export is byte-identical across runs.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ExportChromeTrace writes the span set as Chrome trace-event JSON,
// loadable directly in Perfetto / chrome://tracing. Spans are emitted in
// ID (allocation) order as "X" complete events; each worker invocation
// gets its own thread track (tid = invocation span ID), which its phases
// and ops ride, and everything else rides the driver track (tid 1). Tags
// and non-zero cost counters are attached as args. Timestamps are virtual microseconds since the
// simulation epoch — under DES the output is byte-identical across runs
// of the same seeded query.
func ExportChromeTrace(w io.Writer, spans []Span) error {
	byID := make(map[SpanID]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	// track returns the thread: the span's nearest invoke ancestor (or
	// itself when it is an invocation), else the driver track.
	track := func(s *Span) int {
		for cur := s; cur != nil; cur = byID[cur.Parent] {
			if cur.Kind == KindInvoke {
				return int(cur.ID) + 1 // keep tid 1 for the driver
			}
		}
		return 1
	}
	events := make([]chromeEvent, 0, len(spans))
	for i := range spans {
		s := &spans[i]
		ev := chromeEvent{
			Name: s.Name,
			Cat:  string(s.Kind),
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Duration().Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  track(s),
		}
		args := make(map[string]any)
		args["span"] = int(s.ID)
		if s.Parent != 0 {
			args["parent"] = int(s.Parent)
		}
		for _, k := range sortedTagKeys(s.Tags) {
			args["tag."+k] = s.Tags[k]
		}
		if !s.Cost.IsZero() {
			args["cost"] = s.Cost
		}
		ev.Args = args
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidateChromeTrace checks data against the trace-event schema subset
// this package emits: a top-level traceEvents array whose entries all
// carry name/cat/ph/ts/pid/tid, with ph "X" events also carrying a
// non-negative dur. A phase of a worker invocation (cat "phase" under a
// cat "invoke" parent, by the span/parent args) must ride its invocation's
// track, lie inside it, and overlap none of its other phases. Returns the
// event count.
func ValidateChromeTrace(data []byte) (int, error) {
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph     *string
			Ts, Dur, Pid, Tid *float64
			Args              struct{ Span, Parent int }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("trace: missing traceEvents array")
	}
	type invocation struct {
		tid              float64
		from, to, phased int64 // whole ns (the export writes ns/1e3); phased: where its last phase ended
	}
	invs := map[int]*invocation{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == nil || ev.Cat == nil || ev.Ph == nil || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			return 0, fmt.Errorf("trace: event %d: missing one of name, cat, ph, ts, pid, tid", i)
		}
		var dur float64
		if ev.Dur != nil {
			dur = *ev.Dur
		} else if *ev.Ph == "X" {
			return 0, fmt.Errorf("trace: event %d (%s): missing dur", i, *ev.Name)
		}
		if dur < 0 {
			return 0, fmt.Errorf("trace: event %d (%s): negative dur %v", i, *ev.Name, dur)
		}
		from := int64(math.Round(*ev.Ts * 1e3))
		to := from + int64(math.Round(dur*1e3))
		// An invocation precedes its phases (IDs are allocated parents
		// first), which come in the order they were opened.
		switch inv := invs[ev.Args.Parent]; {
		case *ev.Cat == string(KindInvoke):
			invs[ev.Args.Span] = &invocation{tid: *ev.Tid, from: from, to: to, phased: from}
		case *ev.Cat != string(KindPhase) || inv == nil:
		case *ev.Tid != inv.tid:
			return 0, fmt.Errorf("trace: event %d (phase %s): on track %v, its invocation on %v", i, *ev.Name, *ev.Tid, inv.tid)
		case from < inv.from || to > inv.to:
			return 0, fmt.Errorf("trace: event %d (phase %s): [%d, %d] ns outside its invocation's [%d, %d]", i, *ev.Name, from, to, inv.from, inv.to)
		case from < inv.phased:
			return 0, fmt.Errorf("trace: event %d (phase %s): starts at %d ns, before the phase ahead of it ends at %d", i, *ev.Name, from, inv.phased)
		default:
			inv.phased = to
		}
	}
	return len(doc.TraceEvents), nil
}
