package faults

import (
	"errors"
	"os"
	"reflect"
	"testing"
	"time"
)

// suitePlans are the schedules the chaos suites run under: the acceptance
// storm of internal/driver's chaos tests (cmd/lambada/testdata/storm.json is
// that plus two crashes), its surgical crash, throttle-storm and duplicate
// plans, and one that sets every field. The round-trip test's cases and the
// fuzzer's seeds.
var suitePlans = []Plan{
	{Seed: 20260808, Rules: []Rule{
		{Op: OpS3Get, Kind: KindTransient, Rate: 0.05},
		{Op: OpS3Put, Kind: KindTransient, Rate: 0.03},
		{Op: OpS3Put, Kind: KindSlowDown, Rate: 0.02},
		{Op: OpSQSSend, Kind: KindDuplicate, Rate: 0.2, Delay: 40 * time.Millisecond},
		{Op: OpSQSReceive, Kind: KindTimeout, Rate: 0.03},
		{Op: OpDynamoGet, Kind: KindThrottle, Rate: 0.05},
		{Op: OpLambda, Kind: KindColdSpike, Rate: 0.1, Delay: 300 * time.Millisecond},
		{Op: OpLambda, Kind: KindCrashMidRun, Skip: 5, Count: 1, Delay: 150 * time.Millisecond},
	}},
	{Seed: 9, Rules: []Rule{{Op: OpLambda, Kind: KindCrash, Skip: 2, Count: 1}}},
	{Seed: 4, Rules: []Rule{{Op: OpDynamoGet, Kind: KindThrottle, Skip: 1, Count: 6}}},
	{Seed: 1, Rules: []Rule{{Op: OpSQSSend, Kind: KindDuplicate, Delay: 5 * time.Millisecond}}},
	{Seed: 42, Rules: []Rule{{Op: OpLambda, Kind: KindCrashMidRun, Rate: 0.5, Skip: 3, Count: 1, Delay: 2 * time.Second}}},
	{},
}

func TestPlanJSONRoundTrip(t *testing.T) {
	for _, p := range suitePlans {
		data, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParsePlan(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("round trip mangled plan: %+v, want %+v", got, p)
		}
	}
}

func TestParsePlanValidation(t *testing.T) {
	for name, plan := range map[string]string{
		"empty op":        `{"rules":[{"op":"","kind":"transient"}]}`,
		"empty kind":      `{"rules":[{"op":"s3.Get","kind":""}]}`,
		"rate above 1":    `{"rules":[{"op":"s3.Get","kind":"transient","rate":1.5}]}`,
		"malformed JSON":  `not json`,
		"unknown op":      `{"rules":[{"op":"s3.Head","kind":"transient"}]}`,
		"unknown kind":    `{"rules":[{"op":"s3.Get","kind":"flaky"}]}`,
		"unhandled pair":  `{"rules":[{"op":"s3.Get","kind":"throttle"}]}`,
		"duplicate on s3": `{"rules":[{"op":"s3.Put","kind":"duplicate"}]}`,
		"negative skip":   `{"rules":[{"op":"s3.Get","kind":"transient","skip":-1}]}`,
		"negative count":  `{"rules":[{"op":"s3.Get","kind":"transient","count":-1}]}`,
		"negative delay":  `{"rules":[{"op":"sqs.Send","kind":"duplicate","delay":-5}]}`,
	} {
		if _, err := ParsePlan([]byte(plan)); !errors.Is(err, ErrInvalidPlan) {
			t.Errorf("%s: err = %v, want ErrInvalidPlan", name, err)
		}
	}
}

// FuzzParsePlan: whatever the bytes, ParsePlan returns ErrInvalidPlan or a
// plan that survives Marshal → ParsePlan unchanged and that an injector can
// be driven with; it never panics. Seeds: the suites' plans, the checked-in
// storm, and the edge cases under testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	for _, p := range suitePlans {
		data, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	storm, err := os.ReadFile("../../../cmd/lambada/testdata/storm.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(storm)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			if !errors.Is(err, ErrInvalidPlan) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("parsed plan %+v does not marshal: %v", p, err)
		}
		if back, err := ParsePlan(out); err != nil || !reflect.DeepEqual(back, p) {
			t.Fatalf("plan %+v marshals to %s, which parses back as %+v, %v", p, out, back, err)
		}
		inj := NewInjector(p)
		for _, r := range p.Rules {
			inj.Next(r.Op)
		}
	})
}

func TestNilInjector(t *testing.T) {
	var inj *Injector
	if _, ok := inj.Next(OpS3Get); ok {
		t.Error("nil injector injected a fault")
	}
	if inj.Injected() != nil || inj.TotalInjected() != 0 {
		t.Error("nil injector reported injections")
	}
	if NewInjector(Plan{Seed: 7}) != nil {
		t.Error("empty-rule plan should yield a nil injector")
	}
}

// TestDeterministicReplay: two injectors built from the same plan make
// identical decisions over identical operation sequences.
func TestDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 99, Rules: []Rule{
		{Op: OpS3Get, Kind: KindTransient, Rate: 0.3},
		{Op: OpSQSSend, Kind: KindDuplicate, Rate: 0.2, Delay: time.Second},
		{Op: OpDynamoPut, Kind: KindThrottle, Rate: 0.5},
	}}
	ops := []string{OpS3Get, OpSQSSend, OpS3Get, OpDynamoPut, OpS3Get, OpSQSSend, OpDynamoPut}
	a, b := NewInjector(plan), NewInjector(plan)
	for round := 0; round < 200; round++ {
		for _, op := range ops {
			fa, oka := a.Next(op)
			fb, okb := b.Next(op)
			if oka != okb || fa != fb {
				t.Fatalf("round %d op %s: %v/%v vs %v/%v", round, op, fa, oka, fb, okb)
			}
		}
	}
	if a.TotalInjected() == 0 {
		t.Error("plan with rate 0.3+ rules injected nothing over 1400 ops")
	}
}

// TestStreamIndependence: the decisions of one operation stream do not
// depend on how other streams are interleaved with it — each stream has its
// own counter and its own hash stream.
func TestStreamIndependence(t *testing.T) {
	plan := Plan{Seed: 5, Rules: []Rule{
		{Op: OpS3Get, Kind: KindTransient, Rate: 0.25},
		{Op: OpSQSReceive, Kind: KindTimeout, Rate: 0.25},
	}}
	solo := NewInjector(plan)
	var soloSeq []bool
	for i := 0; i < 500; i++ {
		_, ok := solo.Next(OpS3Get)
		soloSeq = append(soloSeq, ok)
	}
	mixed := NewInjector(plan)
	var mixedSeq []bool
	for i := 0; i < 500; i++ {
		mixed.Next(OpSQSReceive) // interleave another stream
		mixed.Next(OpSQSReceive)
		_, ok := mixed.Next(OpS3Get)
		mixedSeq = append(mixedSeq, ok)
	}
	for i := range soloSeq {
		if soloSeq[i] != mixedSeq[i] {
			t.Fatalf("s3.Get decision %d changed when sqs.Receive ops were interleaved", i)
		}
	}
}

func TestRateRoughlyHolds(t *testing.T) {
	inj := NewInjector(Plan{Seed: 1, Rules: []Rule{{Op: OpS3Put, Kind: KindTransient, Rate: 0.2}}})
	fired := 0
	for i := 0; i < 5000; i++ {
		if _, ok := inj.Next(OpS3Put); ok {
			fired++
		}
	}
	if fired < 800 || fired > 1200 {
		t.Errorf("rate 0.2 fired %d/5000 times", fired)
	}
	if got := inj.Injected()["s3.Put/transient"]; got != fired {
		t.Errorf("Injected() = %d, want %d", got, fired)
	}
}

// TestSkipCountPinpoint: a rate-0 rule with Skip and Count fires on exactly
// the prescribed operations — the surgical "crash the 4th invocation" form.
func TestSkipCountPinpoint(t *testing.T) {
	inj := NewInjector(Plan{Rules: []Rule{
		{Op: OpLambda, Kind: KindCrash, Skip: 3, Count: 2},
	}})
	var fires []int
	for i := 0; i < 10; i++ {
		if _, ok := inj.Next(OpLambda); ok {
			fires = append(fires, i)
		}
	}
	if len(fires) != 2 || fires[0] != 3 || fires[1] != 4 {
		t.Errorf("fired at %v, want [3 4]", fires)
	}
}

// TestFirstMatchingRuleWins: overlapping rules resolve in plan order.
func TestFirstMatchingRuleWins(t *testing.T) {
	inj := NewInjector(Plan{Rules: []Rule{
		{Op: OpS3Get, Kind: KindSlowDown, Count: 1},
		{Op: OpS3Get, Kind: KindTransient},
	}})
	f, ok := inj.Next(OpS3Get)
	if !ok || f.Kind != KindSlowDown {
		t.Errorf("first op: %v/%v, want slowdown", f, ok)
	}
	f, ok = inj.Next(OpS3Get)
	if !ok || f.Kind != KindTransient {
		t.Errorf("second op: %v/%v, want transient (first rule exhausted)", f, ok)
	}
}
