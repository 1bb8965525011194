// Package s3 simulates the Amazon S3 object store: buckets, whole-object and
// ranged GETs, PUT, LIST with prefix, and DELETE, with the two properties
// the Lambada paper's design revolves around:
//
//   - per-request pricing (GETs cheap, PUTs/LISTs expensive) charged to a
//     pricing.CostMeter, which drives the scan chunk-size trade-off (Fig. 7)
//     and the exchange-operator design (Table 2, Fig. 9);
//   - per-bucket request-rate limits with SlowDown throttling, which the
//     multi-bucket sharding trick of §4.4.1 bypasses.
//
// Transfer bandwidth is charged by the Client, which owns the per-function
// token-bucket shaper (§4.3.1).
package s3

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
)

// Errors returned by the service.
var (
	ErrNoSuchBucket = errors.New("s3: no such bucket")
	ErrNoSuchKey    = errors.New("s3: no such key")
	ErrSlowDown     = errors.New("s3: slow down (503): request rate exceeded")
	ErrBucketExists = errors.New("s3: bucket already exists")
	ErrInvalidRange = errors.New("s3: invalid range")
)

// Config controls service behaviour. The zero value gives an unlimited,
// zero-latency store suitable for functional tests.
type Config struct {
	// ReadsPerSecond and WritesPerSecond are per-bucket rate limits
	// (paper: 5500 reads/s and 3500 writes/s as of July 2018). Zero
	// disables limiting.
	ReadsPerSecond  float64
	WritesPerSecond float64

	// GetLatency, PutLatency and ListLatency are per-request first-byte
	// latencies. Nil means zero.
	GetLatency  netmodel.Dist
	PutLatency  netmodel.Dist
	ListLatency netmodel.Dist

	// Meter receives request charges. Nil disables cost accounting.
	Meter *pricing.CostMeter

	// Seed seeds the latency sampler.
	Seed int64

	// Faults injects deterministic failures (transient 500s, timeouts,
	// SlowDown storms) per operation. Nil injects nothing.
	Faults *faults.Injector
}

// DefaultAWSConfig returns the service limits and latencies the paper
// reports: 5.5k reads/s and 3.5k writes/s per bucket, ~30 ms round trips
// with a heavy lognormal tail.
func DefaultAWSConfig(meter *pricing.CostMeter, seed int64) Config {
	return Config{
		ReadsPerSecond:  5500,
		WritesPerSecond: 3500,
		GetLatency:      netmodel.Lognormal{Shift: 10 * time.Millisecond, Mu: 3.0, Sigma: 0.45, Scale: time.Millisecond},
		PutLatency:      netmodel.Lognormal{Shift: 12 * time.Millisecond, Mu: 3.2, Sigma: 0.55, Scale: time.Millisecond},
		ListLatency:     netmodel.Lognormal{Shift: 15 * time.Millisecond, Mu: 3.0, Sigma: 0.4, Scale: time.Millisecond},
		Meter:           meter,
		Seed:            seed,
	}
}

// Object is a stored object. Synthetic objects carry a size but no bytes;
// they back DES-scale experiments where object contents are irrelevant.
type Object struct {
	Key  string
	Size int64
	data []byte // nil for synthetic objects
}

// Synthetic reports whether the object carries no real bytes.
func (o *Object) Synthetic() bool { return o.data == nil && o.Size > 0 }

type bucket struct {
	objects map[string]*Object

	// Rate-limit windows (virtual time).
	readWindow  rateWindow
	writeWindow rateWindow

	// Request statistics.
	gets, puts, lists, deletes int64
}

type rateWindow struct {
	start time.Duration
	count float64
}

func (w *rateWindow) allow(now time.Duration, limit float64) bool {
	if limit <= 0 {
		return true
	}
	if now >= w.start+time.Second {
		w.start = now - (now-w.start)%time.Second
		w.count = 0
	}
	if w.count >= limit {
		return false
	}
	w.count++
	return true
}

// Service is a simulated S3 endpoint. It is safe for concurrent use.
type Service struct {
	mu      sync.Mutex
	cfg     Config
	buckets map[string]*bucket
	rng     *lockedRand
	// trace is the tracer the clients' op spans are recorded on (nil =
	// off); billed cost reaches it through the meter.
	trace *obs.Tracer
}

// SetTracer installs the tracer clients open op spans on. Must be set
// before traffic; nil disables them.
func (s *Service) SetTracer(tr *obs.Tracer) { s.trace = tr }

// New returns a service with the given configuration.
func New(cfg Config) *Service {
	return &Service{
		cfg:     cfg,
		buckets: make(map[string]*bucket),
		rng:     newLockedRand(cfg.Seed),
	}
}

// CreateBucket creates an empty bucket. Creating buckets is free and done at
// installation time (§4.4.1).
func (s *Service) CreateBucket(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return ErrBucketExists
	}
	s.buckets[name] = &bucket{objects: make(map[string]*Object)}
	return nil
}

// MustCreateBucket creates a bucket, ignoring "already exists".
func (s *Service) MustCreateBucket(name string) {
	if err := s.CreateBucket(name); err != nil && !errors.Is(err, ErrBucketExists) {
		panic(err)
	}
}

// Buckets returns all bucket names, sorted.
func (s *Service) Buckets() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.buckets))
	for n := range s.buckets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stats reports request counts for one bucket.
type Stats struct {
	Gets, Puts, Lists, Deletes int64
}

// BucketStats returns request counters for a bucket.
func (s *Service) BucketStats(name string) (Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[name]
	if !ok {
		return Stats{}, fmt.Errorf("%w: %s", ErrNoSuchBucket, name)
	}
	return Stats{Gets: b.gets, Puts: b.puts, Lists: b.lists, Deletes: b.deletes}, nil
}

// TotalBytes returns the sum of object sizes in a bucket.
func (s *Service) TotalBytes(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[name]
	if !ok {
		return 0
	}
	var n int64
	for _, o := range b.objects {
		n += o.Size
	}
	return n
}

// injected applies a fault-plan decision to one request. An injected
// SlowDown returns unbilled and immediately, exactly like the organic
// rate-window rejection it mimics. Transient 500s and timeouts model
// requests that reached the service and failed there: they are billed
// (bill is the request's charge; zero for free requests) and pay the
// request latency before erring — so a chaos run's retry inflation is
// visible in the meter's request counts.
func (s *Service) injected(env simenv.Env, f faults.Fault, bill obs.Cost, lat netmodel.Dist) error {
	switch f.Kind {
	case faults.KindSlowDown:
		return ErrSlowDown
	case faults.KindTransient:
		s.cfg.Meter.Charge(env, bill)
		s.sleepDist(env, lat)
		return fmt.Errorf("s3: %w", faults.ErrInternal)
	case faults.KindTimeout:
		s.cfg.Meter.Charge(env, bill)
		s.sleepDist(env, lat)
		return fmt.Errorf("s3: %w", faults.ErrTimeout)
	}
	return nil
}

// put stores an object after rate-limit and latency accounting.
func (s *Service) put(env simenv.Env, bucketName, key string, obj *Object) error {
	if f, ok := s.cfg.Faults.Next(faults.OpS3Put); ok {
		if err := s.injected(env, f, obs.Cost{S3Put: 1}, s.cfg.PutLatency); err != nil {
			return err
		}
	}
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchBucket, bucketName)
	}
	if !b.writeWindow.allow(env.Now(), s.cfg.WritesPerSecond) {
		s.mu.Unlock()
		return ErrSlowDown
	}
	b.puts++
	s.mu.Unlock()

	s.cfg.Meter.Charge(env, obs.Cost{S3Put: 1})
	s.sleepDist(env, s.cfg.PutLatency)

	s.mu.Lock()
	b.objects[key] = obj
	s.mu.Unlock()
	// Wake the waiters parked on this key's completion topic: the
	// exchange's readers (a round's List passes over its commit namespace)
	// block on exactly this event — a sender's file appearing — so they
	// re-check on the signal instead of burning the fixed poll interval.
	// The topic is keyed by object key (bucket deliberately omitted: one
	// prefix subscription covers a boundary sharded across buckets), so a
	// hundred-sender fleet no longer wakes every waiter on every write.
	// The timed poll remains the fallback for waiters whose file never
	// comes.
	simenv.BroadcastKey(env, "s3/"+key)
	return nil
}

// Put stores real bytes under bucket/key.
func (s *Service) Put(env simenv.Env, bucketName, key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	return s.put(env, bucketName, key, &Object{Key: key, Size: int64(len(cp)), data: cp})
}

// PutSynthetic stores a size-only object for DES-scale experiments.
func (s *Service) PutSynthetic(env simenv.Env, bucketName, key string, size int64) error {
	return s.put(env, bucketName, key, &Object{Key: key, Size: size})
}

// Head returns object metadata without transferring data. Charged as a read.
func (s *Service) Head(env simenv.Env, bucketName, key string) (int64, error) {
	o, err := s.get(env, bucketName, key)
	if err != nil {
		return 0, err
	}
	return o.Size, nil
}

// get performs rate limiting, charging and latency for a read and returns
// the object.
func (s *Service) get(env simenv.Env, bucketName, key string) (*Object, error) {
	if f, ok := s.cfg.Faults.Next(faults.OpS3Get); ok {
		if err := s.injected(env, f, obs.Cost{S3Get: 1}, s.cfg.GetLatency); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchBucket, bucketName)
	}
	if !b.readWindow.allow(env.Now(), s.cfg.ReadsPerSecond) {
		s.mu.Unlock()
		return nil, ErrSlowDown
	}
	b.gets++
	o, okKey := b.objects[key]
	s.mu.Unlock()

	s.cfg.Meter.Charge(env, obs.Cost{S3Get: 1})
	s.sleepDist(env, s.cfg.GetLatency)
	if !okKey {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoSuchKey, bucketName, key)
	}
	return o, nil
}

// Get returns the whole object's bytes (nil for synthetic objects) and size.
func (s *Service) Get(env simenv.Env, bucketName, key string) ([]byte, int64, error) {
	o, err := s.get(env, bucketName, key)
	if err != nil {
		return nil, 0, err
	}
	s.cfg.Meter.Charge(env, obs.Cost{S3ReadBytes: o.Size})
	if o.data == nil {
		return nil, o.Size, nil
	}
	cp := make([]byte, len(o.data))
	copy(cp, o.data)
	return cp, o.Size, nil
}

// GetRange returns n bytes starting at off (HTTP Ranges semantics: a range
// starting beyond the object is invalid; one extending past the end is
// truncated). For synthetic objects it returns nil bytes and the truncated
// length.
func (s *Service) GetRange(env simenv.Env, bucketName, key string, off, n int64) ([]byte, int64, error) {
	if off < 0 || n < 0 {
		return nil, 0, ErrInvalidRange
	}
	o, err := s.get(env, bucketName, key)
	if err != nil {
		return nil, 0, err
	}
	if off >= o.Size {
		return nil, 0, fmt.Errorf("%w: offset %d beyond size %d", ErrInvalidRange, off, o.Size)
	}
	n = min(n, o.Size-off)
	return s.serve(env, o, off, n), n, nil
}

// serve bills and returns a copy of bytes [off, off+n) of o, which the caller
// has held to the object's extent; nil for a synthetic object.
func (s *Service) serve(env simenv.Env, o *Object, off, n int64) []byte {
	s.cfg.Meter.Charge(env, obs.Cost{S3ReadBytes: n})
	if o.data == nil {
		return nil
	}
	cp := make([]byte, n)
	copy(cp, o.data[off:off+n])
	return cp
}

// GetSuffix returns the object's last n bytes and its size — HTTP's suffix
// range, `Range: bytes=-n`, whose Content-Range names the whole length: the
// one request a reader that knows nothing about an object needs before it
// knows where the end is. A suffix longer than the object is the whole
// object. A read like any other: rate-limited, billed as one GET plus the
// bytes returned. For synthetic objects it returns nil bytes and the lengths.
func (s *Service) GetSuffix(env simenv.Env, bucketName, key string, n int64) (_ []byte, got, size int64, _ error) {
	if n <= 0 {
		return nil, 0, 0, ErrInvalidRange
	}
	o, err := s.get(env, bucketName, key)
	if err != nil {
		return nil, 0, 0, err
	}
	n = min(n, o.Size)
	return s.serve(env, o, o.Size-n, n), n, o.Size, nil
}

// ListEntry is one LIST result row.
type ListEntry struct {
	Key  string
	Size int64
}

// List returns entries whose key starts with prefix, sorted by key. Charged
// at the write price (§4.4.3). A single simulated LIST returns all matches
// (pagination is not modeled; one page holds 1000 keys on AWS, and the
// paper's exchange groups stay below that).
func (s *Service) List(env simenv.Env, bucketName, prefix string) ([]ListEntry, error) {
	if f, ok := s.cfg.Faults.Next(faults.OpS3List); ok {
		if err := s.injected(env, f, obs.Cost{S3List: 1}, s.cfg.ListLatency); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchBucket, bucketName)
	}
	if !b.readWindow.allow(env.Now(), s.cfg.ReadsPerSecond) {
		s.mu.Unlock()
		return nil, ErrSlowDown
	}
	b.lists++
	var out []ListEntry
	for k, o := range b.objects {
		if strings.HasPrefix(k, prefix) {
			out = append(out, ListEntry{Key: k, Size: o.Size})
		}
	}
	s.mu.Unlock()

	s.cfg.Meter.Charge(env, obs.Cost{S3List: 1})
	s.sleepDist(env, s.cfg.ListLatency)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Delete removes an object. Deletes are free on AWS; only latency applies.
func (s *Service) Delete(env simenv.Env, bucketName, key string) error {
	if f, ok := s.cfg.Faults.Next(faults.OpS3Delete); ok {
		if err := s.injected(env, f, obs.Cost{}, s.cfg.PutLatency); err != nil {
			return err
		}
	}
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchBucket, bucketName)
	}
	b.deletes++
	delete(b.objects, key)
	s.mu.Unlock()
	s.sleepDist(env, s.cfg.PutLatency)
	return nil
}

// DeleteBatch removes many objects in pages of up to 1000 keys — the
// DeleteObjects API: one request round trip (one latency charge) per page
// instead of one per object, and still free like single deletes. The
// stale-drain collector sweeps boundary namespaces through it.
func (s *Service) DeleteBatch(env simenv.Env, bucketName string, keys []string) error {
	if f, ok := s.cfg.Faults.Next(faults.OpS3Delete); ok {
		if err := s.injected(env, f, obs.Cost{}, s.cfg.PutLatency); err != nil {
			return err
		}
	}
	const page = 1000
	for lo := 0; lo < len(keys); lo += page {
		hi := lo + page
		if hi > len(keys) {
			hi = len(keys)
		}
		s.mu.Lock()
		b, ok := s.buckets[bucketName]
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrNoSuchBucket, bucketName)
		}
		for _, k := range keys[lo:hi] {
			delete(b.objects, k)
		}
		b.deletes += int64(hi - lo)
		s.mu.Unlock()
		s.sleepDist(env, s.cfg.PutLatency)
	}
	return nil
}

func (s *Service) sleepDist(env simenv.Env, d netmodel.Dist) {
	if d == nil {
		return
	}
	env.Sleep(s.rng.sample(d))
}

// Meter returns the service's cost meter (may be nil).
func (s *Service) Meter() *pricing.CostMeter { return s.cfg.Meter }

// ReadBytes returns the total billed bytes served by Get/GetRange.
func (s *Service) ReadBytes() int64 { return s.cfg.Meter.Cost().S3ReadBytes }
