package pricing

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lambada/internal/obs"
)

func TestLambdaDurationMatchesPaperRate(t *testing.T) {
	// §4.4.4: a 2 GiB worker costs $3.3e-5 per second.
	got := Price(obs.Cost{LambdaMiBNs: 2048e9})
	if math.Abs(float64(got)-3.33334e-5) > 1e-9 {
		t.Errorf("2GiB-second = %v, want ~3.3e-5", float64(got))
	}
}

func TestS3RequestPrices(t *testing.T) {
	// §4.3.1: one million read requests cost $0.4; writes and lists $5.
	if math.Abs(float64(S3Read)*1e6-0.4) > 1e-9 {
		t.Errorf("1M reads = %v, want 0.4", float64(S3Read)*1e6)
	}
	if math.Abs(float64(S3Write)*1e6-5.0) > 1e-9 {
		t.Errorf("1M writes = %v, want 5", float64(S3Write)*1e6)
	}
	if S3List != S3Write {
		t.Error("lists must be charged like writes (§4.4.3)")
	}
}

func TestQaaSScan(t *testing.T) {
	if got := QaaSScan(1 << 40); got != 5.0 {
		t.Errorf("1 TiB scan = %v, want $5", got)
	}
	if got := QaaSScan(0); got != 0 {
		t.Errorf("0 bytes = %v", got)
	}
}

func TestVMCost(t *testing.T) {
	got := VMCost(C5NXLarge, 10, 30*time.Minute)
	want := 0.216 * 10 * 0.5
	if math.Abs(float64(got)-want) > 1e-9 {
		t.Errorf("10 c5n.xlarge for 30m = %v, want %v", got, want)
	}
}

func TestUSDString(t *testing.T) {
	cases := []struct {
		v    USD
		want string
	}{
		{0.001, "0.1000¢"},
		{0.05, "5.00¢"},
		{3.5, "$3.50"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.v), got, c.want)
		}
	}
}

func TestCostMeterAccumulates(t *testing.T) {
	m := NewCostMeter()
	m.Charge(nil, obs.Cost{S3Get: 1})
	m.Charge(nil, obs.Cost{S3Get: 1, S3ReadBytes: 100})
	m.ChargeSpan(0, obs.Cost{S3Put: 10})
	if got := m.Count(LabelS3Read); got != 2 {
		t.Errorf("read count = %d", got)
	}
	if got := m.Count(LabelS3Write); got != 10 {
		t.Errorf("write count = %d", got)
	}
	if got, want := m.Get(LabelS3Write), 10*S3Write; got != want {
		t.Errorf("write dollars = %v, want %v", got, want)
	}
	if got, want := m.Cost(), (obs.Cost{S3Get: 2, S3ReadBytes: 100, S3Put: 10}); got != want {
		t.Errorf("ledger = %+v, want %+v", got, want)
	}
	want := 2*S3Read + 10*S3Write
	if math.Abs(float64(m.Total()-want)) > 1e-12 {
		t.Errorf("total = %v, want %v", m.Total(), want)
	}
	if !strings.Contains(m.Breakdown(), "TOTAL") {
		t.Error("breakdown missing TOTAL")
	}
}

func TestCostMeterConcurrent(t *testing.T) {
	m := NewCostMeter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Charge(nil, obs.Cost{SQSRequests: 1})
			}
		}()
	}
	wg.Wait()
	if m.Count(LabelSQS) != 8000 {
		t.Errorf("count = %d, want 8000", m.Count(LabelSQS))
	}
}

func TestNilMeterIsNoOp(t *testing.T) {
	var m *CostMeter
	m.Charge(nil, obs.Cost{S3Get: 1}) // must not panic
	m.ChargeSpan(1, obs.Cost{LambdaMiBNs: 2})
	if c := m.Cost(); !c.IsZero() {
		t.Errorf("nil meter reads %+v", c)
	}
	if m.Total() != 0 || m.Count(LabelS3Read) != 0 || len(m.Labels()) != 0 {
		t.Error("nil meter reports a bill")
	}
}

func TestLabelsSorted(t *testing.T) {
	m := NewCostMeter()
	m.Charge(nil, obs.Cost{SQSRequests: 1})
	m.Charge(nil, obs.Cost{DynamoReads: 1})
	m.Charge(nil, obs.Cost{LambdaInvokes: 1})
	ls := m.Labels()
	if len(ls) != 3 || ls[0] != LabelDynamoRead || ls[1] != LabelLambdaRequests || ls[2] != LabelSQS {
		t.Errorf("labels = %v", ls)
	}
	// Every label, not just these three: Bill's table is in label order.
	all, _ := Bill(obs.Cost{S3Get: 1, S3Put: 1, S3List: 1, SQSRequests: 1, DynamoReads: 1, DynamoWrites: 1, LambdaInvokes: 1, LambdaMiBNs: 1})
	for i := 1; i < len(all); i++ {
		if all[i-1].Label >= all[i].Label {
			t.Errorf("bill lines out of order: %q before %q", all[i-1].Label, all[i].Label)
		}
	}
}

// TestEveryCostFieldIsPriced: each field of obs.Cost except S3ReadBytes
// (counted, never billed) appears under exactly one label of its own, so a
// field added to the unit of account without a price fails here.
func TestEveryCostFieldIsPriced(t *testing.T) {
	seen := map[string]string{}
	typ := reflect.TypeOf(obs.Cost{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var c obs.Cost
		reflect.ValueOf(&c).Elem().Field(i).SetInt(3)
		lines, total := Bill(c)
		if name == "S3ReadBytes" {
			if len(lines) != 0 || total != 0 {
				t.Errorf("S3ReadBytes is billed: %+v", lines)
			}
			continue
		}
		if len(lines) != 1 || lines[0].Count != 3 || lines[0].USD <= 0 || total != lines[0].USD {
			t.Errorf("obs.Cost.%s: bill %+v total %v, want one priced line counting 3", name, lines, total)
			continue
		}
		if other, dup := seen[lines[0].Label]; dup {
			t.Errorf("label %q bills both %s and %s", lines[0].Label, other, name)
		}
		seen[lines[0].Label] = name
	}
}

// TestChargeReachesTracer: the meter forwards each charge to the installed
// tracer in the same call — Charge to the span bound to the environment,
// ChargeSpan to the named span — so the spans sum to the ledger; charges
// with no span to land on are billed all the same.
func TestChargeReachesTracer(t *testing.T) {
	m, tr := NewCostMeter(), obs.New()
	m.SetTracer(tr)
	env := new(int)
	m.Charge(env, obs.Cost{S3Put: 1}) // nothing bound: billed, on no span
	q := tr.StartSpan(obs.KindQuery, "q", 0, 0)
	tr.Bind(env, q)
	m.Charge(env, obs.Cost{S3Get: 2, S3ReadBytes: 64})
	inv := tr.StartSpan(obs.KindInvoke, "w", q, 0)
	m.ChargeSpan(inv, obs.Cost{LambdaMiBNs: 7})
	m.ChargeSpan(0, obs.Cost{LambdaMiBNs: 1})
	traced := obs.Cost{S3Get: 2, S3ReadBytes: 64, LambdaMiBNs: 7}
	if got := obs.TotalCost(tr.Spans()); got != traced {
		t.Errorf("spans carry %+v, want %+v", got, traced)
	}
	traced.Add(obs.Cost{S3Put: 1, LambdaMiBNs: 1})
	if got := m.Cost(); got != traced {
		t.Errorf("ledger %+v, want %+v", got, traced)
	}
}
