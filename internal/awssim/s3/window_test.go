package s3

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/resilience"
	"lambada/internal/simclock"
)

// lat is the constant first-byte latency of the window tests' service.
const lat = 40 * time.Millisecond

// windowService returns a service configured by cfg and a meter it charges,
// with objects k0…k<n-1> in bucket "b", each holding its own index in decimal.
func windowService(n int, cfg Config) (*Service, *pricing.CostMeter) {
	cfg.Meter = pricing.NewCostMeter()
	svc := New(cfg)
	svc.MustCreateBucket("b")
	im := simenv.NewImmediate()
	for i := 0; i < n; i++ {
		svc.Put(im, "b", "k"+strconv.Itoa(i), []byte(strconv.Itoa(i)))
	}
	return svc, cfg.Meter
}

// constLat is a service whose GETs take exactly lat.
var constLat = Config{GetLatency: netmodel.Constant(lat)}

// onKernel runs fn as the only process of a fresh DES kernel and returns the
// virtual time at which it finished.
func onKernel(t *testing.T, fn func(p *simclock.Proc)) time.Duration {
	t.Helper()
	k := simclock.New()
	k.Go("caller", fn)
	end := k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	return end
}

// getAll reads k0…k<n-1> through the window and returns what landed at each
// index.
func getAll(c *Client, n int) ([]string, error) {
	out := make([]string, n)
	err := c.Overlap(n, func(i int, lane *Client) error {
		data, _, err := lane.Get("b", "k"+strconv.Itoa(i), 1)
		out[i] = string(data)
		return err
	})
	return out, err
}

func assertIndexed(t *testing.T, out []string) {
	t.Helper()
	for i, s := range out {
		if s != strconv.Itoa(i) {
			t.Errorf("index %d holds %q", i, s)
		}
	}
}

// TestWindowOverlapsLatency: n GETs through the window take ⌈n/16⌉ first-byte
// latencies, not n, and bill n GETs.
func TestWindowOverlapsLatency(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 32, 40} {
		svc, meter := windowService(n, constLat)
		puts := meter.Cost()
		var out []string
		end := onKernel(t, func(p *simclock.Proc) {
			var err error
			if out, err = getAll(NewClient(svc, p), n); err != nil {
				t.Error(err)
			}
		})
		if want := time.Duration((n+window-1)/window) * lat; end != want {
			t.Errorf("%d GETs took %v, want %v", n, end, want)
		}
		if got := meter.Cost().Sub(puts); got != (obs.Cost{S3Get: int64(n), S3ReadBytes: got.S3ReadBytes}) {
			t.Errorf("%d GETs billed %+v", n, got)
		}
		assertIndexed(t, out)
	}
}

// scripted is a latency distribution that replays a list and then repeats
// its last entry.
type scripted struct {
	mu   sync.Mutex
	next int
	lats []time.Duration
}

func (s *scripted) Sample(*rand.Rand) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.lats[min(s.next, len(s.lats)-1)]
	s.next++
	return d
}

func (s *scripted) Mean() time.Duration { return s.lats[0] }

// TestWindowEarliestFreeLane: a call goes to the lane that is free first
// (the lowest of equals), a slow request holds up nobody but the window's
// end, and results land at their index whatever order they complete in.
func TestWindowEarliestFreeLane(t *testing.T) {
	// Request 0 is slow; the other fifteen of the first batch take 10 ms, so
	// lanes 1…15 are free at +10 ms and requests 16 and 17 go to lanes 1 and
	// 2 then. Request 18 takes the next free lane, 3, and is the slow one
	// that ends the window: 10 ms + 200 ms.
	lats := make([]time.Duration, 19)
	for i := range lats {
		lats[i] = 10 * time.Millisecond
	}
	lats[0], lats[18] = 100*time.Millisecond, 200*time.Millisecond
	svc, _ := windowService(len(lats), Config{GetLatency: &scripted{lats: lats}})
	tr := obs.New()
	svc.SetTracer(tr)
	var out []string
	end := onKernel(t, func(p *simclock.Proc) {
		tr.Bind(p, tr.StartSpan(obs.KindInvoke, "caller", 0, p.Now()))
		var err error
		if out, err = getAll(NewClient(svc, p), len(lats)); err != nil {
			t.Error(err)
		}
	})
	if want := 210 * time.Millisecond; end != want {
		t.Errorf("window took %v, want %v", end, want)
	}
	assertIndexed(t, out)
	// The op spans say when each request was issued and answered.
	spans := tr.Spans()[1:]
	if len(spans) != len(lats) {
		t.Fatalf("%d op spans, want %d", len(spans), len(lats))
	}
	for i, sp := range spans {
		start := time.Duration(0)
		if i >= window {
			start = 10 * time.Millisecond
		}
		if sp.Start != start || sp.End != start+lats[i] {
			t.Errorf("request %d ran %v–%v, want %v–%v", i, sp.Start, sp.End, start, start+lats[i])
		}
	}
}

// TestWindowTraceExact: lane calls are op spans under the caller's current
// span, every charge lands on the span of the request that incurred it, and
// closing the window leaves no lane bound.
func TestWindowTraceExact(t *testing.T) {
	const n = 40
	svc, meter := windowService(n, constLat)
	tr := obs.New()
	svc.SetTracer(tr)
	meter.SetTracer(tr)
	before := meter.Cost()
	var root obs.SpanID
	var laneEnvs []simenv.Env
	onKernel(t, func(p *simclock.Proc) {
		root = tr.StartSpan(obs.KindInvoke, "caller", 0, p.Now())
		tr.Bind(p, root)
		c := NewClient(svc, p)
		err := c.Overlap(n, func(i int, lane *Client) error {
			if tr.Current(lane.Env()) != root {
				t.Errorf("call %d: lane not bound to the caller's span", i)
			}
			laneEnvs = append(laneEnvs, lane.Env())
			_, _, err := lane.Get("b", "k"+strconv.Itoa(i), 1)
			return err
		})
		if err != nil {
			t.Error(err)
		}
		if tr.Current(p) != root {
			t.Error("the window disturbed the caller's span stack")
		}
		tr.EndSpan(root, p.Now())
	})
	for _, env := range laneEnvs {
		if tr.Current(env) != 0 {
			t.Fatal("a lane is still bound after its window closed")
		}
	}
	spans := tr.Spans()
	if len(spans) != n+1 {
		t.Fatalf("%d spans, want the caller's and %d ops", len(spans), n)
	}
	for i, sp := range spans[1:] {
		start := time.Duration(i/window) * lat
		if sp.Kind != obs.KindOp || sp.Name != "s3.get" || sp.Parent != root || sp.Start != start || sp.End != start+lat {
			t.Errorf("span %d = %+v, want an s3.get under the caller over %v–%v", i, sp, start, start+lat)
		}
		if sp.Cost.S3Get != 1 {
			t.Errorf("span %d carries %+v, want its one GET", i, sp.Cost)
		}
	}
	if got, want := obs.TotalCost(spans), meter.Cost().Sub(before); got != want {
		t.Errorf("spans carry %+v, the meter moved %+v", got, want)
	}
}

// TestWindowLaneRetries: an injected transient inside one lane backs off on
// that lane alone — the others finish on time — and the retry comes out of
// the client's one budget.
func TestWindowLaneRetries(t *testing.T) {
	// The 4th GET of the stream is request 3; its retry is the 5th.
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpS3Get, Kind: faults.KindTransient, Skip: 3, Count: 2},
	}})
	svc, meter := windowService(window, Config{GetLatency: netmodel.Constant(lat), Faults: inj})
	puts := meter.Cost()
	budget := resilience.NewBudget(5)
	tr := obs.New()
	pol := resilience.Policy{Budget: budget, Stats: &resilience.Stats{}, Seed: 7, Trace: tr}
	var c *Client
	end := onKernel(t, func(p *simclock.Proc) {
		tr.Bind(p, tr.StartSpan(obs.KindInvoke, "caller", 0, p.Now()))
		c = NewClient(svc, p, WithPolicy(pol))
		out, err := getAll(c, window)
		if err != nil {
			t.Error(err)
		}
		assertIndexed(t, out)
	})
	// Lane 3: three latencies (two billed failures and the success) and the
	// policy's first two backoffs for a GET.
	if want := 3*lat + pol.Backoff("s3.get", 1) + pol.Backoff("s3.get", 2); end != want {
		t.Errorf("window took %v, want %v", end, want)
	}
	if c.Retries() != 2 || budget.Remaining() != 3 {
		t.Errorf("retries = %d, budget left = %d, want 2 and 3", c.Retries(), budget.Remaining())
	}
	if got := meter.Cost().Sub(puts).S3Get; got != window+2 {
		t.Errorf("billed %d GETs, want %d and the two failed tries", got, window)
	}
	for i, sp := range tr.Spans()[1:] {
		if i != 3 && sp.End != lat {
			t.Errorf("request %d ended at %v: it waited for another lane's backoff", i, sp.End)
		}
		if (sp.Tags["retries"] == "2") != (i == 3) {
			t.Errorf("request %d tagged %v", i, sp.Tags)
		}
	}
}

// TestWindowSlowDownBacksOffOnItsLane: the request the bucket's rate window
// turns away backs off on its own lane until that second has passed,
// unbilled, while the admitted ones finish after one latency.
func TestWindowSlowDownBacksOffOnItsLane(t *testing.T) {
	const n = 11 // one more than the bucket takes in a second
	svc, meter := windowService(n, Config{ReadsPerSecond: n - 1, GetLatency: netmodel.Constant(lat)})
	puts := meter.Cost()
	budget := resilience.NewBudget(10)
	tr := obs.New()
	pol := resilience.Policy{Budget: budget, Stats: &resilience.Stats{}, Seed: 7, Trace: tr}
	var c *Client
	end := onKernel(t, func(p *simclock.Proc) {
		tr.Bind(p, tr.StartSpan(obs.KindInvoke, "caller", 0, p.Now()))
		c = NewClient(svc, p, WithPolicy(pol))
		out, err := getAll(c, n)
		if err != nil {
			t.Error(err)
		}
		assertIndexed(t, out)
	})
	// A rejection costs no latency, so the request tries again at the running
	// sum of the policy's backoffs and is admitted by the first retry that
	// falls past the second.
	var waited time.Duration
	retries := 0
	for waited < time.Second {
		retries++
		waited += pol.Backoff("s3.get", retries)
	}
	if end != waited+lat {
		t.Errorf("window took %v, want the %v of %d backoffs and a latency", end, waited, retries)
	}
	if r := c.Retries(); r != int64(retries) || budget.Remaining() != 10-retries {
		t.Errorf("retries = %d, budget left = %d, want %d out of the budget's 10", r, budget.Remaining(), retries)
	}
	if got := meter.Cost().Sub(puts).S3Get; got != n {
		t.Errorf("billed %d GETs, want %d (SlowDowns are unbilled)", got, n)
	}
	for i, sp := range tr.Spans()[1:n] {
		if sp.End != lat {
			t.Errorf("request %d ended at %v: it waited for another lane's backoff", i, sp.End)
		}
	}
}

// TestWindowStopsAtFirstError: the error of the lowest failing index comes
// back, typed, once the calls in flight have finished; nothing after it is
// issued.
func TestWindowStopsAtFirstError(t *testing.T) {
	svc, meter := windowService(8, constLat) // k8… do not exist
	puts := meter.Cost()
	issued := 0
	end := onKernel(t, func(p *simclock.Proc) {
		err := NewClient(svc, p).Overlap(40, func(i int, lane *Client) error {
			issued++
			_, _, err := lane.Get("b", "k"+strconv.Itoa(i), 1)
			if err != nil {
				return fmt.Errorf("call %d: %w", i, err)
			}
			return nil
		})
		if !errors.Is(err, ErrNoSuchKey) || err.Error()[:7] != "call 8:" {
			t.Errorf("err = %v, want call 8's ErrNoSuchKey", err)
		}
	})
	if issued != 9 || meter.Cost().Sub(puts).S3Get != 9 {
		t.Errorf("issued %d calls, billed %d GETs, want 9 and 9", issued, meter.Cost().Sub(puts).S3Get)
	}
	if end != lat {
		t.Errorf("failed window took %v, want the %v of the calls in flight", end, lat)
	}
}

// TestWindowLaneRejectsUploads: an upload takes effect after its latency, so
// a lane refuses it, typed, and nothing reaches the service.
func TestWindowLaneRejectsUploads(t *testing.T) {
	svc, meter := windowService(0, constLat)
	onKernel(t, func(p *simclock.Proc) {
		c := NewClient(svc, p)
		for name, upload := range map[string]func(lane *Client) error{
			"Put":          func(lane *Client) error { return lane.Put("b", "real", []byte("x")) },
			"PutSynthetic": func(lane *Client) error { return lane.PutSynthetic("b", "sized", 10) },
		} {
			err := c.Overlap(1, func(_ int, lane *Client) error { return upload(lane) })
			if !errors.Is(err, ErrLaneWrite) {
				t.Errorf("lane %s err = %v, want ErrLaneWrite", name, err)
			}
		}
		// The same calls are legal on the client itself.
		if err := c.Put("b", "real", []byte("x")); err != nil {
			t.Error(err)
		}
	})
	if got := meter.Cost(); got.S3Put != 1 || svc.TotalBytes("b") != 1 {
		t.Errorf("billed %d PUTs, %d bytes stored, want the one direct Put", got.S3Put, svc.TotalBytes("b"))
	}
}

// TestWindowCrashMidWindow: a worker that dies inside a window dies at its
// deadline, in one of the caller's parks, having issued — and been billed for
// — exactly the requests that started before that instant; the trace still
// adds up to the meter.
func TestWindowCrashMidWindow(t *testing.T) {
	const n = 3 * window
	svc, meter := windowService(n, constLat)
	tr := obs.New()
	svc.SetTracer(tr)
	meter.SetTracer(tr)
	k := simclock.New()
	// Dead 1.5 latencies in: batches one and two are out, the third is not.
	const deadline = 3 * lat / 2
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpLambda, Kind: faults.KindCrashMidRun, Delay: deadline, Count: 1},
	}})
	fn := lambdasvc.New(lambdasvc.Config{Meter: meter, Faults: inj}, lambdasvc.SimRuntime{K: k})
	fn.SetTracer(tr)
	issued, returned := 0, false
	fn.CreateFunction("f", 1792, time.Minute, func(ctx *lambdasvc.Ctx, _ []byte) error {
		err := NewClient(svc, ctx.Env).Overlap(n, func(i int, lane *Client) error {
			issued++
			_, _, err := lane.Get("b", "k"+strconv.Itoa(i), 1)
			return err
		})
		returned = true
		return err
	})
	before := meter.Cost()
	k.Go("driver", func(p *simclock.Proc) {
		tr.Bind(p, tr.StartSpan(obs.KindQuery, "driver", 0, p.Now()))
		if err := fn.Invoke(p, "f", nil, lambdasvc.InvokeOptions{}); err != nil {
			t.Error(err)
		}
	})
	if end := k.Run(); end != deadline {
		t.Errorf("worker gone at %v, want the crash instant %v", end, deadline)
	}
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	moved := meter.Cost().Sub(before)
	if returned || issued != 2*window || moved.S3Get != 2*window {
		t.Errorf("returned = %v, issued %d calls, billed %d GETs; want a dead worker and %d of each", returned, issued, moved.S3Get, 2*window)
	}
	spans := tr.Spans()
	if got := obs.TotalCost(spans); got != moved {
		t.Errorf("spans carry %+v, the meter moved %+v", got, moved)
	}
	for _, sp := range spans {
		if sp.Name == "s3.get" && sp.End != sp.Start+lat {
			t.Errorf("span %d ran %v–%v, want its request's %v", sp.ID, sp.Start, sp.End, lat)
		}
	}
}

// TestWindowSharesTheLink: sixteen lanes moving B bytes each take no less
// than one connection moving 16·B — they queue on the function's one token
// bucket — and only their first-byte latencies overlap.
func TestWindowSharesTheLink(t *testing.T) {
	const size = 8 * netmodel.MiB
	svc, _ := windowService(0, constLat)
	for i := 0; i < window; i++ {
		svc.PutSynthetic(simenv.NewImmediate(), "b", "k"+strconv.Itoa(i), size)
	}
	net := netmodel.DefaultLambdaNet()
	serial := net.NewBucket(2048).Transfer(0, window*size, net.RequestRate(1, 2048))
	var c *Client
	end := onKernel(t, func(p *simclock.Proc) {
		c = NewClient(svc, p, WithShaper(net, 2048))
		if _, err := getAll(c, window); err != nil {
			t.Error(err)
		}
	})
	// Sixteen transfers round to the nanosecond one by one.
	if slack := time.Microsecond; end < lat+serial-slack || end > lat+serial+slack {
		t.Errorf("16 × %d B took %v, want one latency and the %v of a serial transfer", size, end, serial)
	}
	if c.BytesRead() != window*size {
		t.Errorf("bytes read = %d, want %d", c.BytesRead(), window*size)
	}
}

// TestWindowsConcurrentOnOneClient: under the goroutine runtime one client is
// shared by goroutines, each of which may open a window; lanes share the
// client's counters and link by pointer (run under -race).
func TestWindowsConcurrentOnOneClient(t *testing.T) {
	const n = 200
	svc, _ := windowService(n, constLat)
	c := NewClient(svc, simenv.NewImmediate(), WithShaper(netmodel.DefaultLambdaNet(), 2048))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := getAll(c, n)
			if err != nil {
				t.Error(err)
			}
			assertIndexed(t, out)
		}()
	}
	wg.Wait()
	var want int64
	for i := 0; i < n; i++ {
		want += 2 * int64(len(strconv.Itoa(i)))
	}
	if c.BytesRead() != want {
		t.Errorf("bytes read = %d, want %d", c.BytesRead(), want)
	}
}
