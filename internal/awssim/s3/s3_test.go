package s3

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/simclock"
)

func newTestService(meter *pricing.CostMeter) *Service {
	return New(Config{Meter: meter})
}

func TestPutGetRoundTrip(t *testing.T) {
	svc := newTestService(nil)
	env := simenv.NewImmediate()
	svc.MustCreateBucket("b")
	data := []byte("hello lambada")
	if err := svc.Put(env, "b", "k", data); err != nil {
		t.Fatal(err)
	}
	got, size, err := svc.Get(env, "b", "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || size != int64(len(data)) {
		t.Errorf("got %q size %d", got, size)
	}
}

func TestGetIsolatedFromCallerMutation(t *testing.T) {
	svc := newTestService(nil)
	env := simenv.NewImmediate()
	svc.MustCreateBucket("b")
	data := []byte("immutable")
	svc.Put(env, "b", "k", data)
	data[0] = 'X' // caller mutates its slice after Put
	got, _, _ := svc.Get(env, "b", "k")
	if string(got) != "immutable" {
		t.Error("Put did not copy data")
	}
	got[0] = 'Y' // caller mutates the returned slice
	got2, _, _ := svc.Get(env, "b", "k")
	if string(got2) != "immutable" {
		t.Error("Get did not copy data")
	}
}

func TestGetRangeSemantics(t *testing.T) {
	svc := newTestService(nil)
	env := simenv.NewImmediate()
	svc.MustCreateBucket("b")
	svc.Put(env, "b", "k", []byte("0123456789"))

	got, n, err := svc.GetRange(env, "b", "k", 2, 3)
	if err != nil || string(got) != "234" || n != 3 {
		t.Errorf("mid range: %q n=%d err=%v", got, n, err)
	}
	// Range extending past the end is truncated (HTTP Ranges behaviour).
	got, n, err = svc.GetRange(env, "b", "k", 8, 100)
	if err != nil || string(got) != "89" || n != 2 {
		t.Errorf("tail range: %q n=%d err=%v", got, n, err)
	}
	// Range starting past the end is invalid.
	if _, _, err = svc.GetRange(env, "b", "k", 10, 1); !errors.Is(err, ErrInvalidRange) {
		t.Errorf("beyond-end range err = %v", err)
	}
	if _, _, err = svc.GetRange(env, "b", "k", -1, 1); !errors.Is(err, ErrInvalidRange) {
		t.Errorf("negative offset err = %v", err)
	}
}

func TestMissingBucketAndKey(t *testing.T) {
	svc := newTestService(nil)
	env := simenv.NewImmediate()
	if _, _, err := svc.Get(env, "nope", "k"); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("missing bucket: %v", err)
	}
	svc.MustCreateBucket("b")
	if _, _, err := svc.Get(env, "b", "nope"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("missing key: %v", err)
	}
	if err := svc.CreateBucket("b"); !errors.Is(err, ErrBucketExists) {
		t.Errorf("duplicate bucket: %v", err)
	}
}

func TestListPrefixSorted(t *testing.T) {
	svc := newTestService(nil)
	env := simenv.NewImmediate()
	svc.MustCreateBucket("b")
	for _, k := range []string{"snd2/rcv1", "snd0/rcv1", "snd1/rcv1", "other/x"} {
		svc.Put(env, "b", k, []byte("x"))
	}
	got, err := svc.List(env, "b", "snd")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d entries", len(got))
	}
	for i := 0; i < 3; i++ {
		want := fmt.Sprintf("snd%d/rcv1", i)
		if got[i].Key != want {
			t.Errorf("entry %d = %q, want %q", i, got[i].Key, want)
		}
	}
}

func TestDelete(t *testing.T) {
	svc := newTestService(nil)
	env := simenv.NewImmediate()
	svc.MustCreateBucket("b")
	svc.Put(env, "b", "k", []byte("x"))
	if err := svc.DeleteBatch(env, "b", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Get(env, "b", "k"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("after delete: %v", err)
	}
}

func TestSyntheticObjects(t *testing.T) {
	svc := newTestService(nil)
	env := simenv.NewImmediate()
	svc.MustCreateBucket("b")
	svc.PutSynthetic(env, "b", "big", 5<<30)
	data, size, err := svc.Get(env, "b", "big")
	if err != nil || data != nil || size != 5<<30 {
		t.Errorf("synthetic get: data=%v size=%d err=%v", data, size, err)
	}
	_, n, err := svc.GetRange(env, "b", "big", 4<<30, 2<<30)
	if err != nil || n != 1<<30 {
		t.Errorf("synthetic range: n=%d err=%v", n, err)
	}
	if svc.TotalBytes("b") != 5<<30 {
		t.Errorf("total bytes = %d", svc.TotalBytes("b"))
	}
}

func TestRequestPricing(t *testing.T) {
	meter := pricing.NewCostMeter()
	svc := newTestService(meter)
	env := simenv.NewImmediate()
	svc.MustCreateBucket("b")
	svc.Put(env, "b", "k", []byte("x"))
	svc.Get(env, "b", "k")
	svc.Get(env, "b", "k")
	svc.List(env, "b", "")
	if got := meter.Count(pricing.LabelS3Write); got != 1 {
		t.Errorf("writes = %d", got)
	}
	if got := meter.Count(pricing.LabelS3Read); got != 2 {
		t.Errorf("reads = %d", got)
	}
	if got := meter.Count(pricing.LabelS3List); got != 1 {
		t.Errorf("lists = %d", got)
	}
	if got, want := meter.Get(pricing.LabelS3List), pricing.S3List; got != want {
		t.Errorf("list cost = %v, want %v (write price)", got, want)
	}
}

func TestRateLimitThrottlesWithinWindow(t *testing.T) {
	svc := New(Config{ReadsPerSecond: 10})
	env := simenv.NewImmediate() // time frozen at 0 → single window
	svc.MustCreateBucket("b")
	svc.Put(env, "b", "k", []byte("x"))
	throttled := 0
	for i := 0; i < 25; i++ {
		if _, _, err := svc.Get(env, "b", "k"); errors.Is(err, ErrSlowDown) {
			throttled++
		}
	}
	// Put consumed a write slot, not a read slot: exactly 10 reads pass.
	if throttled != 15 {
		t.Errorf("throttled = %d, want 15", throttled)
	}
}

func TestRateLimitWindowResets(t *testing.T) {
	svc := New(Config{ReadsPerSecond: 5})
	svc.MustCreateBucket("b")
	k := simclock.New()
	env := simenv.NewImmediate()
	svc.Put(env, "b", "k", []byte("x"))
	var errs, oks int
	k.Go("reader", func(p *simclock.Proc) {
		for i := 0; i < 20; i++ {
			if _, _, err := svc.Get(p, "b", "k"); err != nil {
				errs++
			} else {
				oks++
			}
			p.Sleep(100 * time.Millisecond) // 10 req/s against a 5/s limit
		}
	})
	k.Run()
	if oks < 9 || oks > 12 {
		t.Errorf("oks = %d (errs %d), want about half of 20", oks, errs)
	}
}

func TestPerBucketLimitsIndependent(t *testing.T) {
	// The multi-bucket sharding trick (§4.4.1): spreading requests over B
	// buckets multiplies the aggregate limit by B.
	svc := New(Config{ReadsPerSecond: 10})
	env := simenv.NewImmediate()
	for i := 0; i < 4; i++ {
		b := fmt.Sprintf("b%d", i)
		svc.MustCreateBucket(b)
		svc.Put(env, b, "k", []byte("x"))
	}
	ok := 0
	for i := 0; i < 40; i++ {
		b := fmt.Sprintf("b%d", i%4)
		if _, _, err := svc.Get(env, b, "k"); err == nil {
			ok++
		}
	}
	// 4 buckets × 10/s − 4 write slots used... writes and reads have
	// separate windows, so all 40 reads pass.
	if ok != 40 {
		t.Errorf("ok = %d, want 40 (sharded)", ok)
	}
}

func TestClientRetriesSlowDown(t *testing.T) {
	svc := New(Config{ReadsPerSecond: 2})
	svc.MustCreateBucket("b")
	k := simclock.New()
	im := simenv.NewImmediate()
	svc.Put(im, "b", "k", []byte("x"))
	var err error
	var got []byte
	k.Go("c", func(p *simclock.Proc) {
		c := NewClient(svc, p)
		for i := 0; i < 5; i++ { // 5 reads against a 2/s limit: retries kick in
			got, _, err = c.Get("b", "k", 1)
			if err != nil {
				return
			}
		}
	})
	k.Run()
	if err != nil {
		t.Fatalf("client failed despite retries: %v", err)
	}
	if string(got) != "x" {
		t.Errorf("got %q", got)
	}
}

func TestClientTransferTimeShaped(t *testing.T) {
	// A 1 GB download on a shaped client takes ~11 s of virtual time
	// (sustained 90 MiB/s) when the burst budget is exhausted first.
	svc := newTestService(nil)
	svc.MustCreateBucket("b")
	im := simenv.NewImmediate()
	svc.PutSynthetic(im, "b", "warm", 2<<30)
	svc.PutSynthetic(im, "b", "big", 1*netmodel.GB)
	k := simclock.New()
	var dur time.Duration
	k.Go("w", func(p *simclock.Proc) {
		c := NewClient(svc, p, WithShaper(netmodel.DefaultLambdaNet(), 2048))
		c.Get("b", "warm", 4) // drain the burst budget
		start := p.Now()
		c.Get("b", "big", 4)
		dur = p.Now() - start
	})
	k.Run()
	bw := float64(netmodel.GB) / dur.Seconds() / netmodel.MiB
	if bw < 80 || bw > 100 {
		t.Errorf("post-burst bandwidth = %.0f MiB/s, want ~90", bw)
	}
}

func TestBucketStatsAndBuckets(t *testing.T) {
	svc := newTestService(nil)
	env := simenv.NewImmediate()
	svc.MustCreateBucket("z")
	svc.MustCreateBucket("a")
	svc.Put(env, "a", "k", []byte("x"))
	svc.Get(env, "a", "k")
	svc.List(env, "a", "")
	svc.DeleteBatch(env, "a", []string{"k"})
	st, err := svc.BucketStats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Puts != 1 || st.Gets != 1 || st.Lists != 1 || st.Deletes != 1 {
		t.Errorf("stats = %+v", st)
	}
	bs := svc.Buckets()
	if len(bs) != 2 || bs[0] != "a" || bs[1] != "z" {
		t.Errorf("buckets = %v", bs)
	}
}

// Property: any sequence of puts followed by a full-object get returns the
// last value written.
func TestPropertyLastWriteWins(t *testing.T) {
	f := func(vals [][]byte) bool {
		if len(vals) == 0 {
			return true
		}
		svc := newTestService(nil)
		env := simenv.NewImmediate()
		svc.MustCreateBucket("b")
		for _, v := range vals {
			if err := svc.Put(env, "b", "k", v); err != nil {
				return false
			}
		}
		got, _, err := svc.Get(env, "b", "k")
		return err == nil && bytes.Equal(got, vals[len(vals)-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: concatenating chunked range reads of any chunk size reproduces
// the object exactly — the invariant the chunked scan operator relies on.
func TestPropertyChunkedRangesReassemble(t *testing.T) {
	f := func(data []byte, chunkRaw uint8) bool {
		svc := newTestService(nil)
		env := simenv.NewImmediate()
		svc.MustCreateBucket("b")
		if err := svc.Put(env, "b", "k", data); err != nil {
			return false
		}
		chunk := int64(chunkRaw%32) + 1
		var out []byte
		for off := int64(0); off < int64(len(data)); off += chunk {
			part, _, err := svc.GetRange(env, "b", "k", off, chunk)
			if err != nil {
				return false
			}
			out = append(out, part...)
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDeleteBatchPagesAndCounts: DeleteBatch removes every key, counts each
// object in the per-bucket delete statistics, and errors on missing buckets.
func TestDeleteBatchPagesAndCounts(t *testing.T) {
	svc := New(Config{})
	env := simenv.NewImmediate()
	svc.MustCreateBucket("b")
	var keys []string
	for i := 0; i < 2300; i++ { // three DeleteObjects pages
		k := fmt.Sprintf("pfx/%04d", i)
		if err := svc.Put(env, "b", k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := svc.DeleteBatch(env, "b", keys); err != nil {
		t.Fatal(err)
	}
	left, err := svc.List(env, "b", "pfx/")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d objects left after batch delete", len(left))
	}
	st, err := svc.BucketStats("b")
	if err != nil {
		t.Fatal(err)
	}
	if st.Deletes != 2300 {
		t.Errorf("deletes = %d, want 2300", st.Deletes)
	}
	if err := svc.DeleteBatch(env, "nope", keys); err == nil {
		t.Error("missing bucket accepted")
	}
}

// TestGetSuffixSemantics: a suffix read returns the object's last n bytes and
// its size; a suffix longer than the object is the whole object; n ≤ 0 is no
// range; a missing key is ErrNoSuchKey; a synthetic object returns nil bytes
// and the lengths; and whatever it returns it bills as one GET plus the bytes.
func TestGetSuffixSemantics(t *testing.T) {
	meter := pricing.NewCostMeter()
	svc := newTestService(meter)
	env := simenv.NewImmediate()
	svc.MustCreateBucket("b")
	obj := []byte("0123456789")
	svc.Put(env, "b", "k", obj)
	size := int64(len(obj))
	for _, n := range []int64{1, size - 1, size, size + 1} {
		before := meter.Cost()
		data, got, total, err := svc.GetSuffix(env, "b", "k", n)
		want := obj[size-min(n, size):]
		if err != nil || !bytes.Equal(data, want) || got != int64(len(want)) || total != size {
			t.Errorf("suffix %d = %q (%d of %d), %v; want %q of %d", n, data, got, total, err, want, size)
		}
		if bill := meter.Cost().Sub(before); bill != (obs.Cost{S3Get: 1, S3ReadBytes: int64(len(want))}) {
			t.Errorf("suffix %d billed %+v", n, bill)
		}
		if len(data) > 0 {
			data[0] = 'X' // the caller's copy is its own
		}
	}
	if got, _, _ := svc.Get(env, "b", "k"); !bytes.Equal(got, obj) {
		t.Errorf("object reads %q after callers wrote to their suffixes", got)
	}
	for _, n := range []int64{0, -1} {
		if _, _, _, err := svc.GetSuffix(env, "b", "k", n); !errors.Is(err, ErrInvalidRange) {
			t.Errorf("suffix %d: %v, want ErrInvalidRange", n, err)
		}
	}
	if _, _, _, err := svc.GetSuffix(env, "b", "nope", 4); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("missing key: %v, want ErrNoSuchKey", err)
	}
	if _, _, _, err := svc.GetSuffix(env, "nope", "k", 4); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("missing bucket: %v, want ErrNoSuchBucket", err)
	}
	svc.PutSynthetic(env, "b", "big", 5<<30)
	for _, n := range []int64{4096, 6 << 30} {
		data, got, total, err := svc.GetSuffix(env, "b", "big", n)
		if err != nil || data != nil || got != min(n, 5<<30) || total != 5<<30 {
			t.Errorf("synthetic suffix %d: data=%v got=%d size=%d err=%v", n, data, got, total, err)
		}
	}
}

// TestClientGetSuffixIsARead: through the client a suffix read is a read like
// GetRange — an injected 500 and a SlowDown of the bucket's rate window are
// retried on it (the first billed, the second not), its bytes are counted and
// shaped, and it is legal on a lane of the request window, where sixteen of
// them share one first-byte latency.
func TestClientGetSuffixIsARead(t *testing.T) {
	meter := pricing.NewCostMeter()
	inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
		{Op: faults.OpS3Get, Kind: faults.KindTransient, Count: 2},
	}})
	svc := New(Config{Meter: meter, Faults: inj})
	svc.MustCreateBucket("b")
	c := NewClient(svc, simenv.NewImmediate())
	if err := c.Put("b", "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, got, size, err := c.GetSuffix("b", "k", 4, 1)
	if err != nil || string(data) != "load" || got != 4 || size != 7 {
		t.Fatalf("suffix = %q (%d of %d), %v", data, got, size, err)
	}
	if c.policy.Stats.Retries() != 2 || c.BytesRead() != 4 {
		t.Errorf("client counts %d retries and %d bytes read, want 2 and 4", c.policy.Stats.Retries(), c.BytesRead())
	}
	if bill := meter.Cost(); bill.S3Get != 3 || bill.S3ReadBytes != 4 {
		t.Errorf("billed %+v, want 3 GETs (2 failed + 1 success) and 4 bytes", bill)
	}

	// The organic SlowDown: one read a second, three suffix reads.
	slow := New(Config{ReadsPerSecond: 1})
	slow.MustCreateBucket("b")
	slow.Put(simenv.NewImmediate(), "b", "k", []byte("x"))
	var retries int64
	end := onKernel(t, func(p *simclock.Proc) {
		sc := NewClient(slow, p)
		for i := 0; i < 3; i++ {
			if _, _, _, err := sc.GetSuffix("b", "k", 1, 1); err != nil {
				t.Error(err)
			}
		}
		retries = sc.policy.Stats.Retries()
	})
	if retries == 0 || end < 2*time.Second {
		t.Errorf("3 reads at 1/s: %d retries, done at %v — the rate window did not apply", retries, end)
	}

	// On a lane: n opens take ⌈n/16⌉ latencies and bill n GETs.
	const n = 17
	wsvc, wmeter := windowService(n, constLat)
	puts := wmeter.Cost()
	out := make([]string, n)
	end = onKernel(t, func(p *simclock.Proc) {
		err := NewClient(wsvc, p).Overlap(n, func(i int, lane *Client) error {
			data, _, _, err := lane.GetSuffix("b", "k"+strconv.Itoa(i), 8, 1)
			out[i] = string(data)
			return err
		})
		if err != nil {
			t.Error(err)
		}
	})
	if end != 2*lat {
		t.Errorf("%d suffix reads through the window took %v, want %v", n, end, 2*lat)
	}
	if bill := wmeter.Cost().Sub(puts); bill.S3Get != n {
		t.Errorf("%d suffix reads billed %+v", n, bill)
	}
	assertIndexed(t, out)
}
