package simenv_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/simclock"
)

// sleepEnv is an Env that records every Sleep it is asked for.
type sleepEnv struct {
	now    time.Duration
	sleeps []time.Duration
}

func (e *sleepEnv) Now() time.Duration { return e.now }

func (e *sleepEnv) Sleep(d time.Duration) {
	e.sleeps = append(e.sleeps, d)
	e.now += d
}

// TestInjectedFaultRule holds the endpoint to its rule, fault kind by fault
// kind: a SlowDown or a throttle is the service's rejection, unbilled and
// drawing no latency; a transient or a timeout bills the request once, sleeps
// one draw and fails under the service's prefix; every other kind comes back
// to the service untouched, as it does where the service has no rejection.
// No Sleep at all for a nil latency: on a DES process even a zero one yields.
func TestInjectedFaultRule(t *testing.T) {
	const seed = 11
	lat := netmodel.Uniform{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	first := lat.Sample(rand.New(rand.NewSource(seed)))
	errReject := errors.New("svc: rejected")
	bill := obs.Cost{S3Put: 1}
	for _, tc := range []struct {
		name   string
		kind   faults.Kind
		reject error
		lat    netmodel.Dist
		err    error // the sentinel the request fails with; nil: none
		billed bool  // charged the bill once
		sleeps int   // Sleep calls, each of one draw
	}{
		{name: "slowdown", kind: faults.KindSlowDown, reject: errReject, lat: lat, err: errReject},
		{name: "throttle", kind: faults.KindThrottle, reject: errReject, lat: lat, err: errReject},
		{name: "slowdown-no-rejection", kind: faults.KindSlowDown, lat: lat},
		{name: "transient", kind: faults.KindTransient, reject: errReject, lat: lat, err: faults.ErrInternal, billed: true, sleeps: 1},
		{name: "timeout", kind: faults.KindTimeout, reject: errReject, lat: lat, err: faults.ErrTimeout, billed: true, sleeps: 1},
		{name: "transient-nil-latency", kind: faults.KindTransient, reject: errReject, err: faults.ErrInternal, billed: true},
		{name: "duplicate", kind: faults.KindDuplicate, reject: errReject, lat: lat},
		{name: "crash", kind: faults.KindCrash, reject: errReject, lat: lat},
		{name: "crash-mid-run", kind: faults.KindCrashMidRun, reject: errReject, lat: lat},
		{name: "cold-spike", kind: faults.KindColdSpike, reject: errReject, lat: lat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meter := pricing.NewCostMeter()
			rule := faults.Rule{Op: "svc.Op", Kind: tc.kind, Count: 1, Delay: time.Second}
			ep := simenv.NewEndpoint("svc", tc.reject, seed, meter, faults.NewInjector(faults.Plan{Rules: []faults.Rule{rule}}))
			env := &sleepEnv{}
			f, err := ep.Fault(env, "svc.Op", bill, tc.lat)
			switch want := "svc: " + fmt.Sprint(tc.err); {
			case tc.err == nil:
				if err != nil || f != (faults.Fault{Kind: tc.kind, Delay: time.Second}) {
					t.Errorf("got %+v, %v; want the rule's fault handed back", f, err)
				}
			case tc.err == errReject:
				if err != errReject {
					t.Errorf("err = %v, want the rejection itself", err)
				}
			case !errors.Is(err, tc.err) || err.Error() != want:
				t.Errorf("err = %v, want %q", err, want)
			}
			var want obs.Cost
			if tc.billed {
				want = bill
			}
			if got := meter.Cost(); got != want {
				t.Errorf("billed %+v, want %+v", got, want)
			}
			if len(env.sleeps) != tc.sleeps {
				t.Fatalf("slept %v, want %d Sleep calls", env.sleeps, tc.sleeps)
			}
			if tc.sleeps == 1 {
				if env.sleeps[0] != first {
					t.Errorf("slept %v, want the stream's first draw %v", env.sleeps[0], first)
				}
			} else if tc.lat != nil {
				if next := ep.Sample(lat); next != first {
					t.Errorf("next draw %v, want the stream's first %v: the fault drew one", next, first)
				}
			}
		})
	}
}

// TestLatencyStreamsPinned runs a fixed script, twice over, on the four
// services as a chaos deployment builds them (their AWS defaults, seeds seed
// to seed+3) on one DES kernel, and pins the virtual instant each call ends
// and each invocation's handler starts. Every call draws from its service's
// seeded latency stream, so a draw that moves, goes missing or comes extra
// moves an instant after it; the second round catches an extra draw at the
// end of the first.
func TestLatencyStreamsPinned(t *testing.T) {
	const seed = 7
	k := simclock.New()
	meter := pricing.NewCostMeter()
	s3svc := s3.New(s3.DefaultAWSConfig(meter, seed))
	lam := lambdasvc.New(lambdasvc.DefaultAWSConfig(meter, seed+1), lambdasvc.SimRuntime{K: k})
	q := sqs.New(sqs.DefaultAWSConfig(meter, seed+2))
	db := dynamo.New(dynamo.DefaultAWSConfig(meter, seed+3))
	s3svc.MustCreateBucket("b")
	q.CreateQueue("q")
	db.CreateTable("t")
	var ends, starts []time.Duration
	if err := lam.CreateFunction("f", 1792, time.Minute, func(ctx *lambdasvc.Ctx, _ []byte) error {
		starts = append(starts, ctx.Env.Now())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	k.Go("script", func(p *simclock.Proc) {
		end := func(err error) {
			if err != nil {
				t.Error(err)
			}
			ends = append(ends, p.Now())
		}
		for round := 0; round < 2; round++ {
			end(s3svc.Put(p, "b", "k", []byte("x")))
			_, _, err := s3svc.Get(p, "b", "k")
			end(err)
			_, err = s3svc.List(p, "b", "")
			end(err)
			end(s3svc.DeleteBatch(p, "b", []string{"k"}))
			end(q.Send(p, "q", []byte("m")))
			_, err = q.Receive(p, "q", 10)
			end(err)
			end(db.Put(p, "t", "k", []byte("v")))
			_, err = db.Get(p, "t", "k")
			end(err)
			_, err = db.Scan(p, "t", "")
			end(err)
			// The first round's first invocation starts cold, every later
			// one warm: the handler has settled a second later.
			for w := 0; w < 2; w++ {
				end(lam.Invoke(p, "f", nil, lambdasvc.InvokeOptions{WorkerID: w}))
				p.Sleep(time.Second)
			}
		}
	})
	k.Run()
	wantEnds := []time.Duration{ // ns
		33499878, 73779766, 117870938, 147421683, 164374617, 180494921,
		192321356, 196843740, 201997847, 247943654, 1283496902,
		2315245523, 2352111117, 2424634052, 2483212167, 2499694797, 2517608811,
		2526099590, 2534756733, 2537714873, 2581234925, 3623765575,
	}
	wantStarts := []time.Duration{
		500832590, 1278372069, 2569428310, 3613700657,
	}
	if !slices.Equal(ends, wantEnds) {
		t.Errorf("calls end at\n%d\nwant\n%d", ends, wantEnds)
	}
	if !slices.Equal(starts, wantStarts) {
		t.Errorf("handlers start at\n%d\nwant\n%d", starts, wantStarts)
	}
	if _, cold := lam.Invocations(); cold != 1 {
		t.Errorf("%d cold starts, want 1", cold)
	}
}
