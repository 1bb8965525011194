// Package obs is the deterministic tracing and metrics layer: a
// virtual-clock-timestamped span tree over the whole query lifecycle
// (query → stage → worker invocation → substrate operation) where every
// span carries exact billed-cost attribution.
//
// The package is dependency-free (standard library only) and nil-safe:
// every method on a nil *Tracer is a no-op, so call sites thread a tracer
// unconditionally and pay nothing when tracing is off.
//
// Determinism contract: span IDs are allocated sequentially in call
// order and timestamps are supplied by the caller from the simulation
// clock. Under the DES kernel execution is single-token and virtual time
// is exact, so two runs of the same seeded query produce byte-identical
// exports (see ExportChromeTrace). Under the functional (goroutine)
// runtime spans are still correct but allocation order — and therefore
// the export — is not reproducible.
//
// Cost attribution: Cost is the one unit of account. Services charge the
// pricing.CostMeter — the ledger — and the meter forwards the same charge
// to ChargeTo(env, cost) in the same call. The charge lands on the
// innermost span bound to that environment (Bind/Pop maintain a
// per-environment span stack), so each billed unit appears on exactly one
// span and summing Cost over all spans reproduces the meter movement
// exactly — no double counting, no estimation.
package obs

import (
	"sort"
	"sync"
	"time"
)

// SpanID identifies a span within one Tracer. 0 means "no span" (the
// parent of a root span, or the result of any method on a nil Tracer).
type SpanID int32

// Kind classifies a span in the taxonomy.
type Kind string

const (
	KindQuery  Kind = "query"  // one whole driver query
	KindPhase  Kind = "phase"  // driver-side phase: plan, collect, merge, sweep
	KindStage  Kind = "stage"  // one stage of the distributed plan
	KindInvoke Kind = "invoke" // one Lambda worker invocation (an attempt)
	KindOp     Kind = "op"     // one substrate operation (S3/SQS/DynamoDB/Lambda API call)
)

// Cost is exact billed usage in integer units: request counts, S3 bytes
// read, and Lambda duration as memoryMiB·nanoseconds. It is what the
// pricing.CostMeter accumulates and what spans carry; pricing.Bill turns
// it into dollars only at display time, so sums are associative.
type Cost struct {
	S3Get         int64 `json:"s3Get,omitempty"`
	S3Put         int64 `json:"s3Put,omitempty"`
	S3List        int64 `json:"s3List,omitempty"`
	S3ReadBytes   int64 `json:"s3ReadBytes,omitempty"`
	SQSRequests   int64 `json:"sqsRequests,omitempty"`
	DynamoReads   int64 `json:"dynamoReads,omitempty"`
	DynamoWrites  int64 `json:"dynamoWrites,omitempty"`
	LambdaInvokes int64 `json:"lambdaInvokes,omitempty"`
	LambdaMiBNs   int64 `json:"lambdaMiBNs,omitempty"`
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.S3Get += o.S3Get
	c.S3Put += o.S3Put
	c.S3List += o.S3List
	c.S3ReadBytes += o.S3ReadBytes
	c.SQSRequests += o.SQSRequests
	c.DynamoReads += o.DynamoReads
	c.DynamoWrites += o.DynamoWrites
	c.LambdaInvokes += o.LambdaInvokes
	c.LambdaMiBNs += o.LambdaMiBNs
}

// Sub returns c − o: the movement between two readings of a ledger.
func (c Cost) Sub(o Cost) Cost {
	return Cost{
		S3Get:         c.S3Get - o.S3Get,
		S3Put:         c.S3Put - o.S3Put,
		S3List:        c.S3List - o.S3List,
		S3ReadBytes:   c.S3ReadBytes - o.S3ReadBytes,
		SQSRequests:   c.SQSRequests - o.SQSRequests,
		DynamoReads:   c.DynamoReads - o.DynamoReads,
		DynamoWrites:  c.DynamoWrites - o.DynamoWrites,
		LambdaInvokes: c.LambdaInvokes - o.LambdaInvokes,
		LambdaMiBNs:   c.LambdaMiBNs - o.LambdaMiBNs,
	}
}

// IsZero reports whether no cost has been attributed.
func (c Cost) IsZero() bool { return c == Cost{} }

// Span is one node of the trace tree. Start/End are virtual timestamps
// (durations since the simulation epoch). End == 0 with Start > 0 means
// the span never finished (e.g. a worker crash unwound past it); End is
// back-filled when the owning environment is released.
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   Kind
	Name   string
	Start  time.Duration
	End    time.Duration
	Tags   map[string]string
	Cost   Cost
}

// Duration is the span's extent (zero if it never ended).
func (s Span) Duration() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Tracer records spans. The zero value is not usable; construct with
// New. A nil Tracer is the no-op tracer: every method returns zero
// values and records nothing.
type Tracer struct {
	mu    sync.Mutex
	spans []Span           // spans[i] has ID i+1
	binds map[any][]SpanID // per-environment span stack
}

// New returns an empty Tracer.
func New() *Tracer {
	return &Tracer{binds: make(map[any][]SpanID)}
}

// Enabled reports whether this tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// StartSpan records a new span starting at the virtual instant at.
// parent may be 0 for a root span.
func (t *Tracer) StartSpan(kind Kind, name string, parent SpanID, at time.Duration) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Kind: kind, Name: name, Start: at})
	return id
}

// EndSpan closes the span at the virtual instant at. Ending span 0 or an
// already-ended span is a no-op.
func (t *Tracer) EndSpan(id SpanID, at time.Duration) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) <= len(t.spans) && t.spans[id-1].End == 0 {
		t.spans[id-1].End = at
	}
}

// SetStart rewrites the span's start instant (used when a span is
// allocated at plan time but timed from launch).
func (t *Tracer) SetStart(id SpanID, at time.Duration) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) <= len(t.spans) {
		t.spans[id-1].Start = at
	}
}

// SetTag sets a string tag on the span.
func (t *Tracer) SetTag(id SpanID, key, value string) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) <= len(t.spans) {
		sp := &t.spans[id-1]
		if sp.Tags == nil {
			sp.Tags = make(map[string]string)
		}
		sp.Tags[key] = value
	}
}

// AddCost accumulates billed cost directly onto the span.
func (t *Tracer) AddCost(id SpanID, c Cost) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) <= len(t.spans) {
		t.spans[id-1].Cost.Add(c)
	}
}

// Bind pushes id onto env's span stack: subsequent ChargeTo(env, …)
// calls land on it until it is popped or a deeper span is bound. env is
// keyed by interface identity; all simulation environments are pointers,
// so identity comparison is well-defined.
func (t *Tracer) Bind(env any, id SpanID) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.binds[env] = append(t.binds[env], id)
}

// Pop removes the innermost span bound to env, and env's entry with its
// last one: an environment that lives for one request window (an s3 lane)
// leaves nothing behind.
func (t *Tracer) Pop(env any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.binds[env]; len(st) > 1 {
		t.binds[env] = st[:len(st)-1]
	} else {
		delete(t.binds, env)
	}
}

// Current returns the innermost span bound to env (0 if none).
func (t *Tracer) Current(env any) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.binds[env]; len(st) > 0 {
		return st[len(st)-1]
	}
	return 0
}

// ChargeTo attributes billed cost to the innermost span bound to env.
// Charges with no bound span are dropped (e.g. setup traffic outside any
// query).
func (t *Tracer) ChargeTo(env any, c Cost) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.binds[env]; len(st) > 0 {
		id := st[len(st)-1]
		t.spans[id-1].Cost.Add(c)
	}
}

// TagTo sets a tag on the innermost span bound to env.
func (t *Tracer) TagTo(env any, key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := SpanID(0)
	if st := t.binds[env]; len(st) > 0 {
		id = st[len(st)-1]
	}
	t.mu.Unlock()
	t.SetTag(id, key, value)
}

// Release drops env's entire span stack, back-filling End = at on every
// still-open span in it. This is the crash-safe unbind: a panicking
// worker unwinds past its op-span Pops, and Release closes the dangling
// spans at the crash instant.
func (t *Tracer) Release(env any, at time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.binds[env] {
		if t.spans[id-1].End == 0 {
			t.spans[id-1].End = at
		}
	}
	delete(t.binds, env)
}

// Spans returns a copy of every recorded span, in allocation (ID) order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		if out[i].Tags != nil {
			tags := make(map[string]string, len(out[i].Tags))
			for k, v := range out[i].Tags {
				tags[k] = v
			}
			out[i].Tags = tags
		}
	}
	return out
}

// Span returns a copy of one span.
func (t *Tracer) Span(id SpanID) (Span, bool) {
	if t == nil || id <= 0 {
		return Span{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) > len(t.spans) {
		return Span{}, false
	}
	return t.spans[id-1], true
}

// TotalCost sums billed cost over every span. Because each charge lands
// on exactly one span, this equals the pricing-meter movement over the
// traced window.
func TotalCost(spans []Span) Cost {
	var c Cost
	for _, s := range spans {
		c.Add(s.Cost)
	}
	return c
}

// Tree is a recording with its child index, built once and shared by the
// analyses of one recording: SubtreeCost, CriticalPath, and the driver's
// per-stage volumes. spans[i] must have ID i+1, as Tracer.Spans returns.
type Tree struct {
	spans    []Span
	children [][]SpanID // by parent ID, in ID order
}

// NewTree indexes spans.
func NewTree(spans []Span) *Tree {
	t := &Tree{spans: spans, children: make([][]SpanID, len(spans)+1)}
	for _, s := range spans {
		if s.Parent > 0 && int(s.Parent) <= len(spans) {
			t.children[s.Parent] = append(t.children[s.Parent], s.ID)
		}
	}
	return t
}

// Walk calls fn on root and then on each of its descendants, parents first.
func (t *Tree) Walk(root SpanID, fn func(*Span)) {
	if root <= 0 || int(root) > len(t.spans) {
		return
	}
	fn(&t.spans[root-1])
	for _, ch := range t.children[root] {
		t.Walk(ch, fn)
	}
}

// SubtreeCost sums billed cost over root and all its descendants.
func (t *Tree) SubtreeCost(root SpanID) Cost {
	var c Cost
	t.Walk(root, func(s *Span) { c.Add(s.Cost) })
	return c
}

func sortedTagKeys(tags map[string]string) []string {
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
