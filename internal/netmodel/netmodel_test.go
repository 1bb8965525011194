package netmodel

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func sortFloats(v []float64) { sort.Float64s(v) }

func TestRateOver(t *testing.T) {
	r := Rate(100 * MiB)
	if d := r.Over(100 * MiB); d != time.Second {
		t.Errorf("100MiB at 100MiB/s = %v, want 1s", d)
	}
	if d := Rate(0).Over(100); d != 0 {
		t.Errorf("zero rate gave %v", d)
	}
}

func TestConstantDist(t *testing.T) {
	c := Constant(5 * time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	if c.Sample(rng) != 5*time.Millisecond || c.Mean() != 5*time.Millisecond {
		t.Error("constant distribution is not constant")
	}
}

func TestUniformDistBounds(t *testing.T) {
	u := Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		s := u.Sample(rng)
		if s < u.Min || s > u.Max {
			t.Fatalf("sample %v out of [%v, %v]", s, u.Min, u.Max)
		}
	}
	if u.Mean() != 5500*time.Microsecond {
		t.Errorf("mean = %v", u.Mean())
	}
}

func TestLognormalTail(t *testing.T) {
	l := Lognormal{Mu: 0, Sigma: 1, Scale: 10 * time.Millisecond}
	rng := rand.New(rand.NewSource(7))
	var sum float64
	n := 20000
	over := 0
	for i := 0; i < n; i++ {
		s := l.Sample(rng)
		sum += s.Seconds()
		if s > 50*time.Millisecond {
			over++
		}
	}
	empMean := sum / float64(n)
	wantMean := l.Mean().Seconds()
	if math.Abs(empMean-wantMean)/wantMean > 0.1 {
		t.Errorf("empirical mean %.4fs vs analytic %.4fs", empMean, wantMean)
	}
	if over == 0 {
		t.Error("lognormal produced no tail samples > 5x scale")
	}
}

func TestTokenBucketSustainedOnly(t *testing.T) {
	// Requesting below the sustained rate never dips into credits.
	b := NewTokenBucket(90*MiB, 300*MiB, 3*time.Second)
	d := b.Transfer(0, 90*MiB, 50*MiB)
	if want := Rate(50 * MiB).Over(90 * MiB); d != want {
		t.Errorf("transfer took %v, want %v", d, want)
	}
	if b.refill(d); b.credits < b.Capacity*0.99 {
		t.Errorf("credits drained on sub-sustained transfer: %.0f / %.0f", b.credits, b.Capacity)
	}
}

func TestTokenBucketBurstThenSustain(t *testing.T) {
	// A large transfer at burst rate exhausts credits; back-to-back repeats
	// (the paper's methodology: three runs in direct succession) settle at
	// the sustained rate.
	b := NewTokenBucket(90*MiB, 300*MiB, 3*time.Second)
	const n = 1 << 30
	var now time.Duration
	var effs []Rate
	for i := 0; i < 3; i++ {
		d := b.Transfer(now, n, 300*MiB)
		effs = append(effs, Rate(float64(n)/d.Seconds()))
		now += d
	}
	if effs[0] < 160*MiB {
		t.Errorf("first run %0.f MiB/s, want burst-assisted > 160", float64(effs[0])/MiB)
	}
	for i := 1; i < 3; i++ {
		if got := float64(effs[i]) / MiB; math.Abs(got-90) > 2 {
			t.Errorf("run %d: %0.f MiB/s, want ~90 (credits exhausted)", i, got)
		}
	}
}

func TestTokenBucketSmallBurst(t *testing.T) {
	// A small transfer fits entirely in the burst budget: ~300 MiB/s.
	b := NewTokenBucket(90*MiB, 300*MiB, 3*time.Second)
	eff := Rate(100 * MB / b.Transfer(0, 100*MB, 300*MiB).Seconds())
	if eff < 290*MiB {
		t.Errorf("small transfer effective %v MiB/s, want ~300", float64(eff)/MiB)
	}
}

func TestTokenBucketRefills(t *testing.T) {
	b := NewTokenBucket(90*MiB, 300*MiB, 3*time.Second)
	d := b.Transfer(0, 2<<30, 300*MiB) // exhaust credits
	if b.refill(d); b.credits > 1 {
		t.Fatalf("credits not exhausted: %f", b.credits)
	}
	// After a long idle period the bucket is full again.
	if b.refill(d + time.Minute); b.credits < b.Capacity {
		t.Errorf("credits after idle = %f, want full %f", b.credits, b.Capacity)
	}
}

// Property: transfer duration is never faster than n/burst nor slower than
// n/sustained (for request rates >= sustained).
func TestPropertyTransferBounds(t *testing.T) {
	f := func(kb uint32, conns uint8) bool {
		n := int64(kb%(4*1024*1024)) << 10 // up to 4 GiB
		if n == 0 {
			n = 1 << 10
		}
		c := int(conns%4) + 1
		b := NewTokenBucket(90*MiB, 300*MiB, 3*time.Second)
		req := Rate(95*MiB) * Rate(c)
		if req < b.Sustained {
			req = b.Sustained
		}
		d := b.Transfer(0, n, req)
		lo := Rate(300 * MiB).Over(n)
		hi := Rate(90 * MiB).Over(n)
		return d >= lo-time.Microsecond && d <= hi+time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLambdaNetFigure6Shape(t *testing.T) {
	// Figure 6a: large files (1 GB) stay at ~90 MiB/s for any connection
	// count. Figure 6b: small files (100 MB) reach ~300 MiB/s only with
	// several connections on large-memory workers.
	ln := DefaultLambdaNet()

	// The paper's methodology: three runs in direct succession, median
	// reported. For large files the burst budget only helps the first run.
	median3 := func(n int64, conns, mem int) Rate {
		b := ln.NewBucket(mem)
		var now time.Duration
		var effs []float64
		for i := 0; i < 3; i++ {
			d := b.Transfer(now, n, ln.RequestRate(conns, mem))
			effs = append(effs, float64(n)/d.Seconds())
			now += d
		}
		sortFloats(effs)
		return Rate(effs[1])
	}
	large := func(conns, mem int) Rate { return median3(1*GB, conns, mem) }
	small := func(conns, mem int) Rate { return median3(100*MB, conns, mem) }

	if bw := large(4, 3008); bw > 160*MiB {
		t.Errorf("large file 4 conns: %0.f MiB/s, want bounded near sustained", float64(bw)/MiB)
	}
	if bw := large(1, 3008); bw < 85*MiB {
		t.Errorf("large file 1 conn: %0.f MiB/s, want >= 85", float64(bw)/MiB)
	}
	if bw := small(4, 3008); bw < 250*MiB {
		t.Errorf("small file 4 conns big mem: %0.f MiB/s, want ~300", float64(bw)/MiB)
	}
	if bw := small(1, 3008); bw > 110*MiB {
		t.Errorf("small file 1 conn: %0.f MiB/s, want ~95", float64(bw)/MiB)
	}
	// Small-memory workers see slightly lower bandwidth.
	if b512, b3008 := small(4, 512), small(4, 3008); b512 >= b3008 {
		t.Errorf("512MiB worker bandwidth %v >= 3008MiB worker %v", b512, b3008)
	}
}

func TestCPUShareModel(t *testing.T) {
	if s := CPUShare(1792); s != 1.0 {
		t.Errorf("CPUShare(1792) = %v, want 1", s)
	}
	if s := CPUShare(3008); math.Abs(s-1.6786) > 0.001 {
		t.Errorf("CPUShare(3008) = %v, want ~1.679", s)
	}
}

func TestComputeTimeFigure4Shape(t *testing.T) {
	// Baseline: 1 s of work at 1792 MiB, 1 thread.
	base := ComputeTime(1.0, 1792, 1)
	if math.Abs(base.Seconds()-1.0) > 0.01 {
		t.Fatalf("baseline = %v, want 1s", base)
	}
	// Below 1792, performance proportional to memory, independent of threads.
	t512x1 := ComputeTime(1.0, 512, 1)
	want := 1792.0 / 512.0
	if math.Abs(t512x1.Seconds()-want) > 0.05 {
		t.Errorf("512MiB 1 thread = %v, want ~%.2fs", t512x1, want)
	}
	// One thread never beats the baseline above 1792 MiB.
	if d := ComputeTime(1.0, 3008, 1); d < base {
		t.Errorf("3008MiB 1 thread = %v, faster than baseline", d)
	}
	// Two threads on 3008 MiB reach ~1.67x baseline throughput.
	d := ComputeTime(1.0, 3008, 2)
	speedup := base.Seconds() / d.Seconds()
	if math.Abs(speedup-1.68) > 0.05 {
		t.Errorf("3008MiB 2 threads speedup = %.3f, want ~1.68", speedup)
	}
	// Two threads on small workers are slightly slower than one thread.
	if one, two := ComputeTime(1.0, 1024, 1), ComputeTime(1.0, 1024, 2); two <= one {
		t.Errorf("2 threads (%v) should be slower than 1 (%v) below one core", two, one)
	}
}

func TestInvokeProfilesTable1(t *testing.T) {
	p, ok := InvokeProfiles[RegionEU]
	if !ok {
		t.Fatal("eu profile missing")
	}
	if p.SingleLatency != 36*time.Millisecond {
		t.Errorf("eu single latency = %v", p.SingleLatency)
	}
	for r, p := range InvokeProfiles {
		if p.DriverRate < 200 || p.DriverRate > 300 {
			t.Errorf("%s driver rate %v outside 220-294 band", r, p.DriverRate)
		}
		if p.IntraRegionRate < 75 || p.IntraRegionRate > 90 {
			t.Errorf("%s intra-region rate %v outside ~80 band", r, p.IntraRegionRate)
		}
	}
}
