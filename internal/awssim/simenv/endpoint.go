package simenv

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
)

// Endpoint is one simulated service's request path: every S3, SQS, DynamoDB
// and Lambda request fails as the fault plan says, bills its charge, and
// sleeps one draw of its latency through it. A service builds one in New.
//
// The endpoint owns the service's seeded latency stream, safe for concurrent
// use in the functional layer (the DES layer is single-threaded anyway). Each
// service has a stream of its own, so what one service's requests draw does
// not depend on another's traffic.
//
// Fault applies a fault-plan decision to one request. An injected SlowDown or
// throttle returns the service's rejection unbilled and immediately, exactly
// like the organic rate-window rejection it mimics (AWS charges neither).
// Transient 500s and timeouts model requests that reached the service and
// failed there: they are billed and pay the request latency before erring —
// so a chaos run's retry inflation is visible in the meter's request counts.
// Any other kind is the calling service's to apply.
type Endpoint struct {
	name   string // the service's error prefix: "s3", "sqs", …
	reject error  // what an injected SlowDown or throttle returns
	meter  *pricing.CostMeter
	faults *faults.Injector

	mu  sync.Mutex
	rng *rand.Rand
}

// NewEndpoint returns the endpoint of the service called name, drawing its
// latencies from seed, billing to meter (nil bills nothing) and failing as
// inj says (nil injects nothing). reject is the service's rejection error for
// an injected SlowDown or throttle; nil hands those back like any other kind.
func NewEndpoint(name string, reject error, seed int64, meter *pricing.CostMeter, inj *faults.Injector) *Endpoint {
	return &Endpoint{name: name, reject: reject, meter: meter, faults: inj, rng: rand.New(rand.NewSource(seed))}
}

// Fault consults the plan for the next operation of the op stream and applies
// the rule above, bill and lat being the request's charge and latency. It
// returns the error the request fails with, or else the fault for the
// service to apply (the zero Fault when none fired).
func (e *Endpoint) Fault(env Env, op string, bill obs.Cost, lat netmodel.Dist) (faults.Fault, error) {
	f, _ := e.faults.Next(op)
	var err error
	switch f.Kind {
	case faults.KindSlowDown, faults.KindThrottle:
		return f, e.reject
	case faults.KindTransient:
		err = faults.ErrInternal
	case faults.KindTimeout:
		err = faults.ErrTimeout
	default:
		return f, nil
	}
	e.Request(env, bill, lat)
	return f, fmt.Errorf("%s: %w", e.name, err)
}

// Request bills c and sleeps one draw of lat: a request that reached the
// service.
func (e *Endpoint) Request(env Env, c obs.Cost, lat netmodel.Dist) {
	e.meter.Charge(env, c)
	e.Sleep(env, lat)
}

// Sleep sleeps one draw of lat. A nil lat is no latency: no draw, and no
// Sleep — on a DES process even a zero Sleep yields.
func (e *Endpoint) Sleep(env Env, lat netmodel.Dist) {
	if lat != nil {
		env.Sleep(e.Sample(lat))
	}
}

// Sample returns one draw of lat, zero without a draw for a nil lat.
func (e *Endpoint) Sample(lat netmodel.Dist) time.Duration {
	if lat == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return lat.Sample(e.rng)
}
