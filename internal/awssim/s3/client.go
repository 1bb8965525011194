package s3

import (
	"sync"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/netmodel"
	"lambada/internal/resilience"
)

// The organic SlowDown rejection is as retryable as any injected fault;
// register it so every layer classifying through resilience agrees.
func init() { resilience.RegisterRetryable(ErrSlowDown) }

// Client is one worker's (or the driver's) view of S3. It owns the
// per-function ingress bandwidth shaper, so concurrent range reads by the
// same worker share its token bucket, reproducing the burst behaviour of
// Figure 6.
type Client struct {
	svc    *Service
	env    simenv.Env
	shaper *netmodel.TokenBucket
	net    netmodel.LambdaNet
	memMiB int

	// policy is what every operation runs under ("aggressive timeouts and
	// retries", §5.5 footnote 17): it retries SlowDown and the injected
	// transients out of its scope's budget, counts the retries, and wraps the
	// operation in an op span — opened only inside an already-bound span
	// context (a query or invocation), so setup traffic stays untraced.
	policy resilience.Policy

	// shared is what the function has one of however many requests it
	// keeps in flight: the lanes of a request window (Overlap) are copies of
	// the client that point at the same one.
	shared *shared
}

// shared is the state a client shares with its lanes: the traffic counters
// and the instant until which the shaped link is taken.
type shared struct {
	mu         sync.Mutex
	bytesRead  int64
	bytesWrite int64
	gets       int64
	// busyUntil is when the last shaped transfer ends. A transfer starts no
	// earlier, so overlapped requests queue on the one token bucket instead
	// of each drawing the full rate; a serial caller has slept past it
	// before it asks again.
	busyUntil time.Duration
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithShaper installs the per-function bandwidth model for a worker with
// the given memory size.
func WithShaper(net netmodel.LambdaNet, memoryMiB int) ClientOption {
	return func(c *Client) {
		c.net = net
		c.memMiB = memoryMiB
		c.shaper = net.NewBucket(memoryMiB)
	}
}

// WithPolicy runs the client's operations under p — the policy of the scope
// the client belongs to (one worker invocation, the driver side of one
// query), so its retries come out of that scope's Budget, are counted in its
// Stats and back off on its Seed, and its op spans go to its Trace. Once the
// budget is spent, further retryable errors surface as
// *resilience.ExhaustedError instead of being retried.
func WithPolicy(p resilience.Policy) ClientOption {
	return func(c *Client) { c.policy = p }
}

// NewClient returns a client bound to svc and env. Without WithPolicy it
// runs under a policy of its own: the defaults, no budget, op spans on the
// service's tracer.
func NewClient(svc *Service, env simenv.Env, opts ...ClientOption) *Client {
	c := &Client{
		svc:    svc,
		env:    env,
		policy: resilience.Policy{Stats: &resilience.Stats{}, Trace: svc.trace},
		shared: &shared{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Env returns the client's environment.
func (c *Client) Env() simenv.Env { return c.env }

// BytesRead returns the total payload bytes downloaded by this client.
func (c *Client) BytesRead() int64 {
	c.shared.mu.Lock()
	defer c.shared.mu.Unlock()
	return c.shared.bytesRead
}

// Gets returns how many downloads this client completed.
func (c *Client) Gets() int64 {
	c.shared.mu.Lock()
	defer c.shared.mu.Unlock()
	return c.shared.gets
}

// BytesWritten returns the total payload bytes uploaded by this client.
func (c *Client) BytesWritten() int64 {
	c.shared.mu.Lock()
	defer c.shared.mu.Unlock()
	return c.shared.bytesWrite
}

// chargeTransfer sleeps for the shaped transfer time of n bytes using conns
// parallel connections, after whatever transfer already holds the link. The
// shaper is guarded because the functional layer issues concurrent reads
// from one client (goroutine workers sharing it).
func (c *Client) chargeTransfer(n int64, conns int) {
	if c.shaper == nil || n <= 0 {
		return
	}
	rate := c.net.RequestRate(conns, c.memMiB)
	now := c.env.Now()
	c.shared.mu.Lock()
	start := max(now, c.shared.busyUntil)
	end := start + c.shaper.Transfer(start, n, rate)
	c.shared.busyUntil = end
	c.shared.mu.Unlock()
	c.env.Sleep(end - now)
}

// received is the end of every download: the shaped transfer time of its n
// bytes over conns connections, and the download and its bytes counted.
func (c *Client) received(n int64, conns int) {
	c.chargeTransfer(n, conns)
	c.shared.mu.Lock()
	c.shared.bytesRead += n
	c.shared.gets++
	c.shared.mu.Unlock()
}

// upload runs one PUT under the policy (shaped as one connection egress; AWS
// does not shape egress to S3 differently, so we reuse the ingress model
// symmetrically) and counts its size bytes.
func (c *Client) upload(size int64, put func() error) error {
	if c.onLane() {
		return ErrLaneWrite
	}
	return c.policy.Do(c.env, "s3.put", func() error {
		err := put()
		if err == nil {
			c.chargeTransfer(size, 1)
			c.shared.mu.Lock()
			c.shared.bytesWrite += size
			c.shared.mu.Unlock()
		}
		return err
	})
}

// Put uploads data.
func (c *Client) Put(bucket, key string, data []byte) error {
	return c.upload(int64(len(data)), func() error { return c.svc.Put(c.env, bucket, key, data) })
}

// PutSynthetic uploads a size-only object, charging transfer time.
func (c *Client) PutSynthetic(bucket, key string, size int64) error {
	return c.upload(size, func() error { return c.svc.PutSynthetic(c.env, bucket, key, size) })
}

// Get downloads a whole object using conns parallel connections.
func (c *Client) Get(bucket, key string, conns int) (data []byte, size int64, err error) {
	err = c.policy.Do(c.env, "s3.get", func() (e error) {
		if data, size, e = c.svc.Get(c.env, bucket, key); e == nil {
			c.received(size, conns)
		}
		return e
	})
	return data, size, err
}

// GetRange downloads object bytes [off, off+n) using conns connections.
func (c *Client) GetRange(bucket, key string, off, n int64, conns int) (data []byte, got int64, err error) {
	err = c.policy.Do(c.env, "s3.getrange", func() (e error) {
		if data, got, e = c.svc.GetRange(c.env, bucket, key, off, n); e == nil {
			c.received(got, conns)
		}
		return e
	})
	return data, got, err
}

// GetSuffix downloads the object's last n bytes (all of it when it is
// shorter) using conns connections, and reports its size with them.
func (c *Client) GetSuffix(bucket, key string, n int64, conns int) (data []byte, got, size int64, err error) {
	err = c.policy.Do(c.env, "s3.getrange", func() (e error) {
		if data, got, size, e = c.svc.GetSuffix(c.env, bucket, key, n); e == nil {
			c.received(got, conns)
		}
		return e
	})
	return data, got, size, err
}

// List returns entries under prefix.
func (c *Client) List(bucket, prefix string) (out []ListEntry, err error) {
	err = c.policy.Do(c.env, "s3.list", func() (e error) {
		out, e = c.svc.List(c.env, bucket, prefix)
		return e
	})
	return out, err
}

// DeleteBatch removes many objects through the batched DeleteObjects API —
// one round trip per 1000 keys.
func (c *Client) DeleteBatch(bucket string, keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	return c.policy.Do(c.env, "s3.deletebatch", func() error { return c.svc.DeleteBatch(c.env, bucket, keys) })
}
