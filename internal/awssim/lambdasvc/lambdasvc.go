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
	// ErrPayloadTooLarge is Lambda's refusal of an asynchronous invocation
	// whose payload is over MaxAsyncPayloadBytes: not billed, not counted,
	// and no retry helps.
	ErrPayloadTooLarge = errors.New("lambda: request payload exceeds the asynchronous invocation limit")
)

// MaxAsyncPayloadBytes is Lambda's invocation payload quota for an
// asynchronous invocation, 256 KB
// (https://docs.aws.amazon.com/lambda/latest/dg/gettingstarted-limits.html).
const MaxAsyncPayloadBytes = 256 << 10

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
	// Span is this invocation's trace span (0 when tracing is off). Its
	// first phase, cold-start or warm, is over when the handler runs;
	// handlers tag the span with application metadata (stage, attempt) and
	// open their own phases on Env (obs.Tracer.Phase).
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
// pollers (simenv.BroadcastKey) in both runtimes, and barriers (simenv.Arm,
// the one way to wait) arm before their check.
var (
	_ simenv.Notifier = (*simclock.Proc)(nil)
	_ simenv.Armer    = (*simclock.Proc)(nil)
	_ simenv.Armer    = (*crashEnv)(nil)
)

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
	invokes int64
	colds   int64
	ep      *simenv.Endpoint
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

// ColdStart returns the mean cold-start delay of the service's containers
// (zero without a model): what a launch plan expects a fresh worker to take
// before its handler runs.
func (s *Service) ColdStart() time.Duration {
	if s.cfg.ColdStart == nil {
		return 0
	}
	return s.cfg.ColdStart.Mean()
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
		ep:  simenv.NewEndpoint("lambda", nil, cfg.Seed, cfg.Meter, cfg.Faults),
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

// InvokeOptions carries per-invocation metadata.
type InvokeOptions struct {
	WorkerID int
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
// ErrTooManyRequests if the concurrency limit is reached, and refuses a
// payload over MaxAsyncPayloadBytes with ErrPayloadTooLarge before anything
// else.
func (s *Service) Invoke(env simenv.Env, name string, payload []byte, opts InvokeOptions) error {
	if len(payload) > MaxAsyncPayloadBytes {
		return fmt.Errorf("%w: %d bytes to %s, over %d", ErrPayloadTooLarge, len(payload), name, MaxAsyncPayloadBytes)
	}
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
	s.invokes++
	cold := f.warm <= 0
	startLat := s.cfg.WarmStart
	if cold {
		s.colds++
		startLat = s.cfg.ColdStart
	} else {
		f.warm--
	}
	startDelay := s.ep.Sample(startLat)
	invokeRTT := s.ep.Sample(s.cfg.InvokeLatency)
	s.mu.Unlock()

	// Fault-plan decision for this invocation. The invoker never observes a
	// crash: asynchronous invocation means the Invoke API accepted the
	// request; the worker simply never reports. Recovery is the driver's job
	// (speculation, attempt re-invocation, MaxStageWait). An Invoke request
	// that failed invoked nothing: it hands its container back.
	fault, err := s.ep.Fault(env, faults.OpLambda, obs.Cost{LambdaInvokes: 1}, s.cfg.InvokeLatency)
	if err != nil {
		s.mu.Lock()
		s.running--
		s.invokes--
		if cold {
			s.colds--
		} else {
			f.warm++
		}
		s.mu.Unlock()
		return err
	}
	if fault.Kind == faults.KindColdSpike {
		startDelay += fault.Delay
	}
	crashOnStart := fault.Kind == faults.KindCrash
	var crashAfter time.Duration
	if fault.Kind == faults.KindCrashMidRun {
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
		var span, start obs.SpanID
		if tr.Enabled() {
			span = tr.StartSpan(obs.KindInvoke, f.Name, opts.Span, wenv.Now())
			tr.SetTag(span, "worker", strconv.Itoa(opts.WorkerID))
			phase := "warm"
			if cold {
				phase = "cold-start"
			}
			start = tr.StartSpan(obs.KindPhase, phase, span, wenv.Now())
		}
		wenv.Sleep(invokeRTT/2 + startDelay)
		tr.EndSpan(start, wenv.Now())
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
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(crashPanic); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			// An asynchronous invocation has no caller to hand an error to:
			// a worker reports through the result queue itself.
			_ = f.Handler(ctx, payload)
		}()
		dur := wenv.Now() - begin
		if f.Timeout > 0 && dur > f.Timeout {
			dur = f.Timeout
			tr.SetTag(span, "timeout", "true")
		}
		// A mid-run crash bills the partial duration: the work ran until the
		// instant the container died.
		s.cfg.Meter.ChargeSpan(span, obs.Cost{LambdaMiBNs: int64(f.MemoryMiB) * int64(dur)})
		if crashed {
			tr.SetTag(span, "fault", "crash-mid-run")
		}
		// Release closes the invocation span and its last phase, and
		// back-fills any op spans a crash unwound past without popping.
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

// Invocations returns total and cold invocation counts.
func (s *Service) Invocations() (total, cold int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.invokes, s.colds
}

// crashPanic is the private panic value a crashEnv raises when its worker's
// virtual time reaches the injected crash instant; the Invoke spawn body
// recovers it and treats the worker as dead.
type crashPanic struct{}

// crashEnv wraps a worker's environment and kills the worker — by panicking
// with crashPanic — once virtual time reaches deadline. All worker waiting
// funnels through Env (compute sleeps, service latencies, barrier parks), so
// clamping Sleep and Park to the deadline is exactly "the container died at
// that instant": whatever the worker had already written (S3 partial output,
// child invocations) survives, everything after never happens.
type crashEnv struct {
	inner    simenv.Env
	deadline time.Duration
	// armed is the barrier the worker armed and has not parked on or
	// cancelled yet (the zero Barrier when there is none).
	armed simenv.Barrier
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
		c.crash()
	}
	c.inner.Sleep(d)
}

// crash kills the worker. A barrier it armed dies with it: the entry is
// withdrawn, so no broadcast takes it for a process that will never park.
func (c *crashEnv) crash() {
	c.Disarm()
	panic(crashPanic{})
}

// NotifyKey keeps crashEnv a simenv.Notifier, and Arm, Park and Disarm a
// simenv.Armer: both runtimes' worker environments are Notifiers, and
// barriers built on simenv.Arm must keep arming before their check and
// parking on the completion signal (not degrade to fixed polls) under a crash
// plan — otherwise chaos runs would park differently than clean runs for
// reasons unrelated to the injected faults.
func (c *crashEnv) NotifyKey(key string) { simenv.BroadcastKey(c.inner, key) }

func (c *crashEnv) Arm(topic string) { c.armed = simenv.Arm(c.inner, topic) }

func (c *crashEnv) Park(d time.Duration) bool {
	now := c.inner.Now()
	if now >= c.deadline {
		c.crash()
	}
	if now+d >= c.deadline {
		d = c.deadline - now
	}
	woke := c.armed.Wait(d)
	c.armed = simenv.Barrier{}
	if c.inner.Now() >= c.deadline {
		c.crash()
	}
	return woke
}

func (c *crashEnv) Disarm() {
	c.armed.Cancel()
	c.armed = simenv.Barrier{}
}
