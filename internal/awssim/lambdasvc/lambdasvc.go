// Package lambdasvc simulates AWS Lambda: function registration with a
// memory size that determines the CPU share (§4.1, Figure 4), cold and warm
// starts, a concurrency limit, invocation latencies (Table 1), and GB-second
// billing.
//
// Workers execute on a Runtime: either the deterministic DES kernel
// (performance experiments) or real goroutines (functional tests and
// examples).
package lambdasvc

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/simclock"
)

// Errors returned by the service.
var (
	ErrNoSuchFunction  = errors.New("lambda: no such function")
	ErrTooManyRequests = errors.New("lambda: too many requests (concurrency limit)")
	ErrTimeout         = errors.New("lambda: function timed out")
)

// MaxMemoryMiB is the largest configurable function size in the era the
// paper measures.
const MaxMemoryMiB = 3008

// Handler is the worker entry point. The returned error is delivered to
// whatever completion callback the invoker registered.
type Handler func(ctx *Ctx, payload []byte) error

// Ctx is the per-invocation context handed to handlers.
type Ctx struct {
	Env       simenv.Env
	Function  string
	MemoryMiB int
	Cold      bool
	// WorkerID is a caller-assigned identifier carried in InvokeOptions.
	WorkerID int
	// Span is this invocation's trace span (0 when tracing is off).
	// Handlers tag it with application metadata (stage, attempt) and use
	// it as the parent for child invocations.
	Span obs.SpanID

	svc *Service
}

// Compute charges the time of oneVCPUSeconds of single-core work executed
// with the given number of threads on this function's CPU share.
func (c *Ctx) Compute(oneVCPUSeconds float64, threads int) {
	c.Env.Sleep(netmodel.ComputeTime(oneVCPUSeconds, c.MemoryMiB, threads))
}

// CPUShare returns the vCPU fraction of this function.
func (c *Ctx) CPUShare() float64 { return netmodel.CPUShare(c.MemoryMiB) }

// Runtime abstracts how worker bodies execute.
type Runtime interface {
	// Spawn starts fn; fn receives the environment the worker runs in.
	Spawn(name string, fn func(env simenv.Env))
	// WaitIdle blocks until all spawned work completed. On the DES runtime
	// this is a no-op (the kernel's Run drives completion).
	WaitIdle()
}

// SimRuntime executes workers as DES processes.
type SimRuntime struct{ K *simclock.Kernel }

// DES processes carry the kernel's completion signal, so services can wake
// pollers (simenv.BroadcastKey / simenv.WaitNotifyKey) in both runtimes.
var _ simenv.Notifier = (*simclock.Proc)(nil)

// Spawn starts a DES process.
func (r SimRuntime) Spawn(name string, fn func(env simenv.Env)) {
	r.K.Go(name, func(p *simclock.Proc) { fn(p) })
}

// WaitIdle is a no-op; kernel.Run drives the simulation.
func (r SimRuntime) WaitIdle() {}

// GoRuntime executes workers as real goroutines, each with its own
// Immediate environment (modeled latencies accumulate without blocking).
type GoRuntime struct{ wg sync.WaitGroup }

// Spawn starts a goroutine.
func (r *GoRuntime) Spawn(name string, fn func(env simenv.Env)) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn(simenv.NewImmediate())
	}()
}

// WaitIdle blocks until all spawned goroutines returned.
func (r *GoRuntime) WaitIdle() { r.wg.Wait() }

// Config controls service behaviour. The zero value gives instant starts,
// no concurrency limit, and no billing.
type Config struct {
	// ConcurrencyLimit is the maximum number of concurrently running
	// instances (AWS default: 1000; the paper raised it via support
	// ticket). Zero disables the limit.
	ConcurrencyLimit int
	// ColdStart is the extra delay of a cold container start
	// (dependency-layer load etc.). Nil means zero.
	ColdStart netmodel.Dist
	// WarmStart is the start delay of a warm container. Nil means zero.
	WarmStart netmodel.Dist
	// InvokeLatency is the round trip of one Invoke API call charged to
	// the caller. Nil means zero.
	InvokeLatency netmodel.Dist
	// Meter receives duration and request charges.
	Meter *pricing.CostMeter
	// Seed seeds latency sampling.
	Seed int64

	// Faults injects deterministic failures per invocation: crash-on-invoke
	// (the container starts and dies before the handler runs), crash-mid-run
	// (the worker dies Delay of virtual time into its handler; partial work
	// survives and partial duration is billed), and cold-start spikes (Delay
	// added to the container start). Nil injects nothing.
	Faults *faults.Injector
}

// DefaultAWSConfig returns calibration matching the paper: ~250 ms cold
// starts, ~15 ms warm starts, eu-region invoke latency.
func DefaultAWSConfig(meter *pricing.CostMeter, seed int64) Config {
	prof := netmodel.InvokeProfiles[netmodel.RegionEU]
	return Config{
		ConcurrencyLimit: 10000,
		ColdStart:        netmodel.Uniform{Min: 180 * time.Millisecond, Max: 320 * time.Millisecond},
		WarmStart:        netmodel.Uniform{Min: 8 * time.Millisecond, Max: 25 * time.Millisecond},
		InvokeLatency:    netmodel.Uniform{Min: prof.SingleLatency - 6*time.Millisecond, Max: prof.SingleLatency + 10*time.Millisecond},
		Meter:            meter,
		Seed:             seed,
	}
}

// Function is a registered function.
type Function struct {
	Name      string
	MemoryMiB int
	Timeout   time.Duration
	Handler   Handler

	warm int // warm container pool
}

// Service is a simulated Lambda endpoint.
type Service struct {
	mu      sync.Mutex
	cfg     Config
	rt      Runtime
	fns     map[string]*Function
	running int
	peak    int
	invokes int64
	colds   int64
	rng     *rand.Rand
	// trace receives invocation spans; nil (the default) traces nothing.
	// Set before use via SetTracer. Billed cost reaches it through the meter.
	trace *obs.Tracer
	// onSettle, when set, runs in the worker's environment every time a
	// container finishes — handler return, timeout and crash paths alike
	// (wherever the running gauge decrements). A resident session's
	// admission controller hooks its token release here so capacity frees
	// autonomously as containers die, never gated on a driver event loop.
	onSettle func(env simenv.Env)
}

// SetTracer installs the tracer invocation spans are recorded on. Must be
// set before traffic; nil disables them.
func (s *Service) SetTracer(tr *obs.Tracer) { s.trace = tr }

// SetCompletionHook installs fn, called in the worker's environment each
// time a container settles (normal return, timeout, or crash). One hook per
// service: a deployment hosts one resident session. Set before traffic;
// nil disables.
func (s *Service) SetCompletionHook(fn func(env simenv.Env)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onSettle = fn
}

// BilledMiBNs returns the cumulative billed duration over all
// invocations, in exact memoryMiB·nanoseconds.
func (s *Service) BilledMiBNs() int64 { return s.cfg.Meter.Cost().LambdaMiBNs }

// New returns a service running workers on rt.
func New(cfg Config, rt Runtime) *Service {
	return &Service{
		cfg: cfg,
		rt:  rt,
		fns: make(map[string]*Function),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// CreateFunction registers (or replaces) a function. Replacing resets the
// warm pool — the paper creates a fresh function to force cold runs.
func (s *Service) CreateFunction(name string, memoryMiB int, timeout time.Duration, h Handler) error {
	if memoryMiB < 128 || memoryMiB > MaxMemoryMiB {
		return fmt.Errorf("lambda: memory %d MiB outside [128, %d]", memoryMiB, MaxMemoryMiB)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fns[name] = &Function{Name: name, MemoryMiB: memoryMiB, Timeout: timeout, Handler: h}
	return nil
}

// Warm pre-warms n containers of a function (models a prior hot run).
func (s *Service) Warm(name string, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.fns[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchFunction, name)
	}
	f.warm += n
	return nil
}

// InvokeOptions carries per-invocation metadata.
type InvokeOptions struct {
	WorkerID int
	// OnDone, if non-nil, runs in the worker's context after the handler
	// returns (success or error). Used by tests and the driver simulators.
	OnDone func(env simenv.Env, err error)
	// Pipelined skips the caller-side round-trip sleep: the caller issues
	// invocations from a pool of requester threads and paces itself (the
	// mass-invocation mode of §4.2). The worker still starts after the
	// request leg plus its container start delay.
	Pipelined bool
	// Span is the parent trace span for the invocation span (0 = root).
	Span obs.SpanID
}

// Invoke performs an asynchronous invocation: the caller pays the Invoke
// API round trip; the worker body is spawned on the runtime. It returns
// ErrTooManyRequests if the concurrency limit is reached.
func (s *Service) Invoke(env simenv.Env, name string, payload []byte, opts InvokeOptions) error {
	s.mu.Lock()
	f, ok := s.fns[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchFunction, name)
	}
	if s.cfg.ConcurrencyLimit > 0 && s.running >= s.cfg.ConcurrencyLimit {
		s.mu.Unlock()
		return ErrTooManyRequests
	}
	s.running++
	if s.running > s.peak {
		s.peak = s.running
	}
	s.invokes++
	cold := f.warm <= 0
	if !cold {
		f.warm--
	} else {
		s.colds++
	}
	var startDelay time.Duration
	if cold && s.cfg.ColdStart != nil {
		startDelay = s.cfg.ColdStart.Sample(s.rng)
	} else if !cold && s.cfg.WarmStart != nil {
		startDelay = s.cfg.WarmStart.Sample(s.rng)
	}
	var invokeRTT time.Duration
	if s.cfg.InvokeLatency != nil {
		invokeRTT = s.cfg.InvokeLatency.Sample(s.rng)
	}
	s.mu.Unlock()

	// Fault-plan decision for this invocation. The invoker never observes a
	// crash: asynchronous invocation means the Invoke API accepted the
	// request; the worker simply never reports. Recovery is the driver's job
	// (speculation, attempt re-invocation, MaxStageWait).
	fault, injectFault := s.cfg.Faults.Next(faults.OpLambda)
	if injectFault && fault.Kind == faults.KindColdSpike {
		startDelay += fault.Delay
	}
	crashOnStart := injectFault && fault.Kind == faults.KindCrash
	var crashAfter time.Duration
	if injectFault && fault.Kind == faults.KindCrashMidRun {
		if fault.Delay > 0 {
			crashAfter = fault.Delay
		} else {
			crashOnStart = true
		}
	}

	// The caller pays for the Invoke request; the charge lands on
	// whatever span its environment is bound to (stage launch, retry op).
	s.cfg.Meter.Charge(env, obs.Cost{LambdaInvokes: 1})
	tr := s.trace

	// The worker begins after roughly half the caller's round trip (the
	// request leg) plus its container start delay.
	s.rt.Spawn(fmt.Sprintf("%s#%d", name, opts.WorkerID), func(wenv simenv.Env) {
		var span, startSpan obs.SpanID
		if tr.Enabled() {
			span = tr.StartSpan(obs.KindInvoke, f.Name, opts.Span, wenv.Now())
			tr.SetTag(span, "worker", strconv.Itoa(opts.WorkerID))
			if cold {
				tr.SetTag(span, "cold", "true")
			}
			startSpan = tr.StartSpan(obs.KindOp, "lambda.start", span, wenv.Now())
		}
		wenv.Sleep(invokeRTT/2 + startDelay)
		tr.EndSpan(startSpan, wenv.Now())
		if crashOnStart {
			// The container died before the handler ran: no handler duration
			// to bill, no completion callback, and the container is gone —
			// it does not rejoin the warm pool.
			tr.SetTag(span, "fault", "crash-on-invoke")
			tr.EndSpan(span, wenv.Now())
			s.mu.Lock()
			s.running--
			settle := s.onSettle
			s.mu.Unlock()
			if settle != nil {
				settle(wenv)
			}
			return
		}
		henv := wenv
		if crashAfter > 0 {
			henv = &crashEnv{inner: wenv, deadline: wenv.Now() + crashAfter}
		}
		// Bind the environment the handler (and through it every service
		// call) actually uses, so substrate charges attribute to this
		// invocation's subtree.
		tr.Bind(henv, span)
		ctx := &Ctx{Env: henv, Function: f.Name, MemoryMiB: f.MemoryMiB, Cold: cold, WorkerID: opts.WorkerID, Span: span, svc: s}
		begin := wenv.Now()
		crashed := false
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(crashPanic); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			return f.Handler(ctx, payload)
		}()
		dur := wenv.Now() - begin
		if f.Timeout > 0 && dur > f.Timeout {
			dur = f.Timeout
			err = fmt.Errorf("%w after %v", ErrTimeout, f.Timeout)
			tr.SetTag(span, "timeout", "true")
		}
		// A mid-run crash bills the partial duration: the work ran until the
		// instant the container died.
		s.cfg.Meter.ChargeSpan(span, obs.Cost{LambdaMiBNs: int64(f.MemoryMiB) * int64(dur)})
		if crashed {
			tr.SetTag(span, "fault", "crash-mid-run")
		}
		// Release closes the invocation span and back-fills any op spans a
		// crash unwound past without popping.
		tr.Release(henv, wenv.Now())
		s.mu.Lock()
		s.running--
		if !crashed {
			f.warm++ // container stays warm for subsequent invocations
		}
		settle := s.onSettle
		s.mu.Unlock()
		if settle != nil {
			settle(wenv)
		}
		if !crashed && opts.OnDone != nil {
			opts.OnDone(wenv, err)
		}
	})

	// Caller pays the full API round trip unless it pipelines requests.
	if invokeRTT > 0 && !opts.Pipelined {
		env.Sleep(invokeRTT)
	}
	return nil
}

// Running returns the number of currently executing instances.
func (s *Service) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// PeakConcurrency returns the maximum simultaneous instances observed.
func (s *Service) PeakConcurrency() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// Invocations returns total and cold invocation counts.
func (s *Service) Invocations() (total, cold int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.invokes, s.colds
}

// Runtime returns the service's runtime.
func (s *Service) Runtime() Runtime { return s.rt }

// crashPanic is the private panic value a crashEnv raises when its worker's
// virtual time reaches the injected crash instant; the Invoke spawn body
// recovers it and treats the worker as dead.
type crashPanic struct{}

// crashEnv wraps a worker's environment and kills the worker — by panicking
// with crashPanic — once virtual time reaches deadline. All worker waiting
// funnels through Env (compute sleeps, service latencies, barrier parks), so
// clamping Sleep and WaitNotifyKey to the deadline is exactly "the container
// died at that instant": whatever the worker had already written (S3 partial
// output, child invocations) survives, everything after never happens.
type crashEnv struct {
	inner    simenv.Env
	deadline time.Duration
}

func (c *crashEnv) Now() time.Duration { return c.inner.Now() }

func (c *crashEnv) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if c.inner.Now()+d >= c.deadline {
		if left := c.deadline - c.inner.Now(); left > 0 {
			c.inner.Sleep(left)
		}
		panic(crashPanic{})
	}
	c.inner.Sleep(d)
}

// NotifyKey and WaitNotifyKey keep crashEnv a simenv.Notifier: both runtimes'
// worker environments are Notifiers, and barriers built on
// simenv.WaitNotifyKey must keep parking on the completion signal (not
// degrade to fixed polls) under a crash plan — otherwise chaos runs would
// time differently than clean runs for reasons unrelated to the injected
// faults.
func (c *crashEnv) NotifyKey(key string) { simenv.BroadcastKey(c.inner, key) }

func (c *crashEnv) WaitNotifyKey(topic string, d time.Duration) bool {
	now := c.inner.Now()
	if now >= c.deadline {
		panic(crashPanic{})
	}
	if now+d >= c.deadline {
		d = c.deadline - now
	}
	woke := simenv.WaitNotifyKey(c.inner, topic, d)
	if c.inner.Now() >= c.deadline {
		panic(crashPanic{})
	}
	return woke
}
