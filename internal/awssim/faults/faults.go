// Package faults is the deterministic fault-injection layer of the simulated
// AWS substrate: every service consults an Injector once per operation and
// applies whatever fault the plan prescribes — transient 500s and request
// timeouts, S3 SlowDown storms, DynamoDB throttling, SQS duplicate delivery
// and delayed redelivery, Lambda crashes and cold-start spikes.
//
// Fault schedules are driven by a seeded, JSON-serializable Plan. Decisions
// are pure functions of (seed, rule, operation stream, per-stream counter):
// each operation stream ("s3.Put", "sqs.Receive", …) carries its own counter
// and its own hash-derived randomness, so adding a rule for one service never
// shifts another service's fault schedule, and a DES run — where operations
// are totally ordered by the kernel — replays a plan exactly. The same plan
// under the functional goroutine layer injects the same *rates* but not the
// same schedule (operation interleaving is up to the Go scheduler there).
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Sentinel errors the services wrap their injected failures around. The
// resilience layer classifies all three as retryable: they model the
// transient server-side failures the paper's "aggressive timeouts and
// retries" (§5.5) exist for.
var (
	// ErrInternal is an injected internal server error (HTTP 500 class).
	ErrInternal = errors.New("injected internal error (500)")
	// ErrTimeout is an injected request timeout: the request was sent (and
	// billed) but the response never arrived.
	ErrTimeout = errors.New("injected request timeout")
	// ErrThrottled is an injected throughput-exceeded rejection (DynamoDB
	// ProvisionedThroughputExceededException class).
	ErrThrottled = errors.New("injected throughput exceeded")
)

// Kind names a fault class. A service has a case for some kinds and not for
// others (a "duplicate" on an S3 stream would fire and inject nothing);
// handled lists which, and ParsePlan rejects the rest.
type Kind string

const (
	// KindTransient injects a retryable internal error (500). The request
	// reaches the service, so it is billed like any other request.
	KindTransient Kind = "transient"
	// KindTimeout injects a request timeout; billed (the request was made).
	KindTimeout Kind = "timeout"
	// KindSlowDown injects an S3 503 SlowDown as if the bucket's rate window
	// were exhausted — unbilled, exactly like an organic SlowDown.
	KindSlowDown Kind = "slowdown"
	// KindThrottle injects a DynamoDB throughput rejection — unbilled (AWS
	// does not charge throttled requests).
	KindThrottle Kind = "throttle"
	// KindDuplicate makes an SQS send enqueue the message twice — the
	// at-least-once semantics of real SQS. Delay, when set, is the extra
	// visibility delay of the second copy (delayed redelivery).
	KindDuplicate Kind = "duplicate"
	// KindCrash makes a Lambda invocation start its container and then die
	// before the handler runs. The invoker still sees a successful Invoke
	// (asynchronous invocation), the worker simply never reports.
	KindCrash Kind = "crash"
	// KindCrashMidRun kills a Lambda worker Delay of virtual time into its
	// handler: partial work (S3 writes, child invocations) survives, the
	// completion message never arrives, and the container is not reused.
	KindCrashMidRun Kind = "crash-mid-run"
	// KindColdSpike adds Delay to an invocation's container start — the
	// occasional multi-second cold start of real Lambda.
	KindColdSpike Kind = "cold-spike"
)

// Canonical operation-stream names. Services pass these to Injector.Next;
// plans match on them.
const (
	OpS3Get       = "s3.Get" // Get, GetRange and Head share one stream
	OpS3Put       = "s3.Put"
	OpS3List      = "s3.List"
	OpS3Delete    = "s3.Delete"
	OpSQSSend     = "sqs.Send"
	OpSQSReceive  = "sqs.Receive"
	OpDynamoGet   = "dynamo.Get"
	OpDynamoPut   = "dynamo.Put"
	OpDynamoPutIf = "dynamo.PutIf"
	OpLambda      = "lambda.Invoke"
)

// handled lists, per operation stream, the kinds its service has a case for.
var handled = map[string][]Kind{
	OpS3Get:       {KindTransient, KindTimeout, KindSlowDown},
	OpS3Put:       {KindTransient, KindTimeout, KindSlowDown},
	OpS3List:      {KindTransient, KindTimeout, KindSlowDown},
	OpS3Delete:    {KindTransient, KindTimeout, KindSlowDown},
	OpSQSSend:     {KindTransient, KindTimeout, KindDuplicate},
	OpSQSReceive:  {KindTransient, KindTimeout},
	OpDynamoGet:   {KindThrottle},
	OpDynamoPut:   {KindThrottle},
	OpDynamoPutIf: {KindThrottle},
	OpLambda:      {KindCrash, KindCrashMidRun, KindColdSpike},
}

// Rule prescribes faults for one operation stream. A rule fires either
// probabilistically (Rate in (0, 1]: each eligible operation faults with
// that probability, decided by a seeded hash of the stream counter) or
// deterministically (Rate 0: every eligible operation faults) — the latter,
// bounded by Count and offset by Skip, pinpoints a single operation ("crash
// the 7th invocation") for surgical chaos tests.
type Rule struct {
	// Op is the operation stream the rule applies to (OpS3Get, …).
	Op string `json:"op"`
	// Kind is the fault to inject.
	Kind Kind `json:"kind"`
	// Rate is the per-operation fault probability; 0 means "always" (use
	// Count to bound it).
	Rate float64 `json:"rate,omitempty"`
	// Skip exempts the stream's first Skip operations.
	Skip int `json:"skip,omitempty"`
	// Count bounds how many times the rule fires in total (0 = unlimited).
	Count int `json:"count,omitempty"`
	// Delay parameterizes kinds that carry a duration: the redelivery delay
	// of a duplicate, the time-to-crash of crash-mid-run, the extra start
	// delay of a cold spike. JSON-encoded as integer nanoseconds.
	Delay time.Duration `json:"delay,omitempty"`
}

// Plan is a complete, replayable fault schedule: a seed plus rules. The zero
// Plan injects nothing.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// ErrInvalidPlan is what every plan ParsePlan turns down wraps.
var ErrInvalidPlan = errors.New("faults: invalid plan")

// ParsePlan decodes a JSON plan — outside bytes: cmd/lambada's -fault-plan
// file — and rejects, with ErrInvalidPlan, what would not do what it says: a
// rule for an operation stream no service consults or of a kind that stream's
// service has no case for (it would never fire, or fire and inject nothing),
// a rate outside [0, 1], a negative skip, count or delay.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, fmt.Errorf("%w: %v", ErrInvalidPlan, err)
	}
	for i, r := range p.Rules {
		kinds, ok := handled[r.Op]
		if !ok {
			return Plan{}, fmt.Errorf("%w: rule %d: no operation stream %q", ErrInvalidPlan, i, r.Op)
		}
		if !slices.Contains(kinds, r.Kind) {
			return Plan{}, fmt.Errorf("%w: rule %d: %s has no fault of kind %q", ErrInvalidPlan, i, r.Op, r.Kind)
		}
		if r.Rate < 0 || r.Rate > 1 {
			return Plan{}, fmt.Errorf("%w: rule %d: rate %v outside [0, 1]", ErrInvalidPlan, i, r.Rate)
		}
		if r.Skip < 0 || r.Count < 0 || r.Delay < 0 {
			return Plan{}, fmt.Errorf("%w: rule %d: negative skip, count or delay", ErrInvalidPlan, i)
		}
	}
	return p, nil
}

// marshal encodes the plan as JSON: the inverse ParsePlan is held to.
func (p Plan) marshal() ([]byte, error) { return json.Marshal(p) }

// Fault is one injected fault decision.
type Fault struct {
	Kind  Kind
	Delay time.Duration
}

// Injector evaluates a Plan operation by operation. A nil Injector is valid
// and injects nothing, so services hold one unconditionally.
type Injector struct {
	mu     sync.Mutex
	plan   Plan
	counts map[string]int // operations seen per stream
	fired  []int          // fires per rule (Count bookkeeping)
	stats  map[string]int // injected faults per "op/kind"
}

// NewInjector returns an injector for the plan. A plan with no rules yields
// a nil injector (the explicit "no faults" case costs nothing per op).
func NewInjector(plan Plan) *Injector {
	if len(plan.Rules) == 0 {
		return nil
	}
	return &Injector{
		plan:   plan,
		counts: make(map[string]int),
		fired:  make([]int, len(plan.Rules)),
		stats:  make(map[string]int),
	}
}

// Next consults the plan for the next operation of the op stream. It returns
// the fault to inject, if any; when several rules would fire on the same
// operation, the first matching rule in plan order wins.
func (i *Injector) Next(op string) (Fault, bool) {
	if i == nil {
		return Fault{}, false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	n := i.counts[op]
	i.counts[op]++
	for ri, r := range i.plan.Rules {
		if r.Op != op || n < r.Skip {
			continue
		}
		if r.Count > 0 && i.fired[ri] >= r.Count {
			continue
		}
		// The rule's draw for the stream's n-th operation, salted "lambada":
		// independent per stream and per rule, so schedules compose
		// without interference.
		if r.Rate > 0 && Draw(i.plan.Seed, 0x6c616d62616461, op, uint64(ri)<<40^uint64(n)) >= r.Rate {
			continue
		}
		i.fired[ri]++
		i.stats[op+"/"+string(r.Kind)]++
		return Fault{Kind: r.Kind, Delay: r.Delay}, true
	}
	return Fault{}, false
}

// Injected returns the number of faults injected so far, keyed "op/kind".
func (i *Injector) Injected() map[string]int {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[string]int, len(i.stats))
	for k, v := range i.stats {
		out[k] = v
	}
	return out
}

// String summarizes injected fault counts, sorted by key.
func (i *Injector) String() string {
	st := i.Injected()
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%-28s %d\n", k, st[k])
	}
	return s
}

// Draw maps (seed, salt, op, n) to [0, 1): splitmix64 over seed^salt, then
// over each byte of op, then over n. A pure function, so a schedule drawn from
// it replays exactly: the injector draws each rule's fault probability per
// stream operation from it, and resilience its retry backoffs.
func Draw(seed int64, salt uint64, op string, n uint64) float64 {
	h := splitmix64(uint64(seed) ^ salt)
	for _, c := range []byte(op) {
		h = splitmix64(h ^ uint64(c))
	}
	h = splitmix64(h ^ n)
	return float64(h>>11) / float64(1<<53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
