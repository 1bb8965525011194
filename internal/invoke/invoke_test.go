package invoke

import (
	"testing"
	"testing/quick"
	"time"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/netmodel"
)

func TestPacingGapSingleThread(t *testing.T) {
	// One thread from Zurich to eu: one invocation per ~36 ms — the pace
	// the driver shows in Figure 5 ("before own invocation" ramp).
	p := DriverPacing(netmodel.RegionEU, 1)
	if got := p.Gap(); got != 36*time.Millisecond {
		t.Errorf("gap = %v, want 36ms", got)
	}
}

func TestPacingGapCappedByAPIRate(t *testing.T) {
	// 128 threads would allow 128/36ms ≈ 3555/s; the API caps at 294/s
	// (Table 1), so the gap is 1/294 s.
	p := DriverPacing(netmodel.RegionEU, 128)
	rate := 294.0
	want := time.Duration(float64(time.Second) / rate)
	if got := p.Gap(); got != want {
		t.Errorf("gap = %v, want %v", got, want)
	}
}

func TestWorkerPacing(t *testing.T) {
	p := WorkerPacing(netmodel.RegionEU)
	rate := 81.0
	want := time.Duration(float64(time.Second) / rate)
	if got := p.Gap(); got != want {
		t.Errorf("worker gap = %v, want %v (81 inv/s)", got, want)
	}
}

func TestTreeFanoutCoversAllWorkers(t *testing.T) {
	for _, total := range []int{1, 2, 3, 4, 5, 16, 100, 320, 1000, 4096} {
		firstGen, children := TreeFanout(total)
		seen := map[int]bool{}
		for _, id := range firstGen {
			if seen[id] {
				t.Fatalf("total=%d: duplicate id %d", total, id)
			}
			seen[id] = true
		}
		for _, cs := range children {
			for _, id := range cs {
				if seen[id] {
					t.Fatalf("total=%d: duplicate id %d", total, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != total {
			t.Fatalf("total=%d: covered %d ids", total, len(seen))
		}
	}
}

func TestTreeFanoutSqrtShape(t *testing.T) {
	firstGen, children := TreeFanout(4096)
	if len(firstGen) != 64 {
		t.Errorf("first generation = %d, want 64 (√4096)", len(firstGen))
	}
	for i, cs := range children {
		if len(cs) > 64 {
			t.Errorf("first-gen %d has %d children, want <= 64", i, len(cs))
		}
	}
}

func TestDirectVsTreeDuration(t *testing.T) {
	// §4.2: direct invocation of 4096 workers takes 13-18 s extrapolated;
	// the tree starts them "in under 4 s".
	driver1 := DriverPacing(netmodel.RegionEU, 1)
	driver128 := DriverPacing(netmodel.RegionEU, 128)
	worker := WorkerPacing(netmodel.RegionEU)
	cold := 300 * time.Millisecond

	direct := DirectDuration(driver128, 4096)
	if direct < 13*time.Second || direct > 18*time.Second {
		t.Errorf("direct 4096 at 128 threads = %v, want 13-18 s", direct)
	}
	tree := TreeDuration(driver1, worker, cold, 4096)
	if tree > 4*time.Second {
		t.Errorf("tree 4096 = %v, want < 4 s", tree)
	}
	// Driver ramp alone ~64 × 36 ms ≈ 2.3 s, matching Figure 5's "last
	// worker initiated after about 2.5 s".
	ramp := time.Duration(64) * driver1.Gap()
	if ramp < 2*time.Second || ramp > 3*time.Second {
		t.Errorf("driver ramp = %v, want ~2.3 s", ramp)
	}
	// And invoking 1000 workers directly takes 3.4-4.4 s (§4.2).
	d1000 := DirectDuration(driver128, 1000)
	if d1000 < 3400*time.Millisecond || d1000 > 4400*time.Millisecond {
		t.Errorf("direct 1000 = %v, want 3.4-4.4 s", d1000)
	}
}

// TestUseTreeAtTheRequesterPoolRate pins the executor's launch policy: its
// pacer runs at Table 1's concurrent rate, 294 Invokes/s from Zurich to eu,
// and at that rate and the calibrated Lambda config's mean cold start a
// 30-worker fleet launches directly — the tree would wait out a cold start
// for what the pool issues in 0.1 s — while 256 and 4 096 go through the tree.
func TestUseTreeAtTheRequesterPoolRate(t *testing.T) {
	driver := DriverPacing(netmodel.RegionEU, RequesterThreads)
	rate := 294.0
	if want := time.Duration(float64(time.Second) / rate); driver.Gap() != want {
		t.Errorf("pool gap = %v, want %v", driver.Gap(), want)
	}
	worker := WorkerPacing(netmodel.RegionEU)
	cold := lambdasvc.New(lambdasvc.DefaultAWSConfig(nil, 0), nil).ColdStart()
	if cold != 250*time.Millisecond {
		t.Fatalf("mean cold start = %v, want 250ms", cold)
	}
	for _, tc := range []struct {
		total int
		tree  bool
	}{{1, false}, {4, false}, {30, false}, {100, false}, {256, true}, {4096, true}} {
		if got := UseTree(driver, worker, cold, tc.total); got != tc.tree {
			t.Errorf("UseTree(%d) = %v (tree %v, direct %v), want %v", tc.total, got,
				TreeDuration(driver, worker, cold, tc.total), DirectDuration(driver, tc.total), tc.tree)
		}
	}
}

// Property: the tree never assigns a worker to two launchers and the first
// generation is ~√total.
func TestPropertyTreeFanout(t *testing.T) {
	f := func(raw uint16) bool {
		total := int(raw)%5000 + 1
		firstGen, children := TreeFanout(total)
		n := len(firstGen)
		for _, cs := range children {
			n += len(cs)
		}
		if n != total {
			return false
		}
		g := len(firstGen)
		return g*g >= total && (g-1)*(g-1) < total || total == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
