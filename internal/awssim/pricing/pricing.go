// Package pricing encodes the AWS price model the Lambada paper evaluates
// against (us-east-1, late 2019) and provides a CostMeter that the service
// simulators charge usage to. All figures that report monetary cost (1, 7,
// 9, 10, 12) derive from these tables.
package pricing

import (
	"fmt"
	"sync"
	"time"

	"lambada/internal/obs"
)

// USD is an amount of money in US dollars.
type USD float64

// String formats the amount with adaptive precision (¢ for small amounts).
func (u USD) String() string {
	switch {
	case u < 0.01:
		return fmt.Sprintf("%.4f¢", float64(u)*100)
	case u < 1:
		return fmt.Sprintf("%.2f¢", float64(u)*100)
	default:
		return fmt.Sprintf("$%.2f", float64(u))
	}
}

// Price constants (us-east-1, as quoted in the paper).
const (
	// LambdaGBSecond is the AWS Lambda duration price per GiB-second.
	// A 2 GiB worker costs $3.3e-5 per second (§4.4.4).
	LambdaGBSecond USD = 1.66667e-5
	// LambdaPerRequest is the AWS Lambda invocation price.
	LambdaPerRequest USD = 0.20 / 1e6

	// S3Read is the price of one GET request ($0.4 per million, §4.3.1).
	S3Read USD = 0.4 / 1e6
	// S3Write is the price of one PUT request ($5 per million).
	S3Write USD = 5.0 / 1e6
	// S3List is the price of one LIST request (charged like writes, §4.4.3).
	S3List USD = 5.0 / 1e6

	// SQSPerRequest is the price of one SQS request.
	SQSPerRequest USD = 0.40 / 1e6

	// DynamoRead and DynamoWrite are on-demand request prices.
	DynamoRead  USD = 0.25 / 1e6
	DynamoWrite USD = 1.25 / 1e6

	// QaaSPerTiB is the bytes-scanned price of Amazon Athena and Google
	// BigQuery ("1 TiB of input costs $5 in both systems", §5.4.1).
	QaaSPerTiB USD = 5.0
)

// VMType describes an EC2 instance type used in the Figure 1 simulations.
type VMType struct {
	Name       string
	HourlyUSD  USD
	VCPUs      int
	MemoryGiB  float64
	NetworkGbs float64 // network bandwidth in Gbit/s
	// ScanBps is the effective single-instance scan bandwidth in bytes/s
	// for the storage tier this instance represents in Figure 1b.
	ScanBps float64
}

// Instance types from the paper's simulations (footnotes 1 and 3).
var (
	// C5NXLarge is the job-scoped worker VM of Figure 1a.
	C5NXLarge = VMType{Name: "c5n.xlarge", HourlyUSD: 0.216, VCPUs: 4, MemoryGiB: 10.5, NetworkGbs: 25}
	// R512XLarge reads pre-loaded data from DRAM (Figure 1b).
	R512XLarge = VMType{Name: "r5.12xlarge", HourlyUSD: 3.024, VCPUs: 48, MemoryGiB: 384, NetworkGbs: 10, ScanBps: 40e9}
	// I316XLarge reads from local NVMe (Figure 1b).
	I316XLarge = VMType{Name: "i3.16xlarge", HourlyUSD: 4.992, VCPUs: 64, MemoryGiB: 488, NetworkGbs: 25, ScanBps: 16e9}
	// C5N18XLarge scans directly from S3 (Figure 1b).
	C5N18XLarge = VMType{Name: "c5n.18xlarge", HourlyUSD: 3.888, VCPUs: 72, MemoryGiB: 192, NetworkGbs: 100, ScanBps: 9e9}
)

// QaaSScan returns the QaaS price of scanning n bytes.
func QaaSScan(n int64) USD {
	return QaaSPerTiB * USD(float64(n)/(1<<40))
}

// VMCost returns the cost of running count instances of t for d, billed
// per-second (AWS Linux on-demand billing).
func VMCost(t VMType, count int, d time.Duration) USD {
	return t.HourlyUSD * USD(float64(count)*d.Hours())
}

// Line is one line of a bill: the units counted under a label and their
// price.
type Line struct {
	Label string
	Count int64
	USD   USD
}

// Bill prices c: one line per label with a nonzero count, in label order,
// and their sum. This is the only place a count is multiplied by a price —
// dollars are derived from integer counts on demand, never accumulated.
func Bill(c obs.Cost) (lines []Line, total USD) {
	// Every billed field of obs.Cost with its unit price. S3ReadBytes is
	// absent: transfer into Lambda is free, the bytes are only counted.
	tariff := [...]Line{
		{LabelDynamoRead, c.DynamoReads, DynamoRead},
		{LabelDynamoWrite, c.DynamoWrites, DynamoWrite},
		// AWS bills in 1 ms increments; we bill exact MiB·ns, which is
		// indistinguishable at the scales reported.
		{LabelLambdaDuration, c.LambdaMiBNs, LambdaGBSecond / 1024 / 1e9},
		{LabelLambdaRequests, c.LambdaInvokes, LambdaPerRequest},
		{LabelS3List, c.S3List, S3List},
		{LabelS3Read, c.S3Get, S3Read},
		{LabelS3Write, c.S3Put, S3Write},
		{LabelSQS, c.SQSRequests, SQSPerRequest},
	}
	lines = make([]Line, 0, len(tariff))
	for _, l := range tariff {
		if l.Count != 0 {
			l.USD *= USD(l.Count)
			lines = append(lines, l)
			total += l.USD
		}
	}
	return lines, total
}

// Price returns the total of c's bill.
func Price(c obs.Cost) USD {
	_, total := Bill(c)
	return total
}

// CostMeter is the deployment's ledger: the one integer total every billed
// unit is added to, once. When a tracer is installed the same call also
// attributes the charge to a span, so the span tree sums to the meter by
// construction. It is safe for concurrent use (the functional layer
// exercises services from many real goroutines); a nil meter is a no-op.
type CostMeter struct {
	mu    sync.Mutex
	total obs.Cost
	trace *obs.Tracer
}

// NewCostMeter returns an empty meter.
func NewCostMeter() *CostMeter { return &CostMeter{} }

// SetTracer installs the tracer charges are attributed to. Must be set
// before traffic; nil disables attribution.
func (m *CostMeter) SetTracer(tr *obs.Tracer) { m.trace = tr }

// Charge bills c, attributing it to the innermost span bound to env (the
// calling simulation environment).
func (m *CostMeter) Charge(env any, c obs.Cost) {
	if m == nil {
		return
	}
	m.add(c)
	m.trace.ChargeTo(env, c)
}

// ChargeSpan bills c, attributing it to span directly (0 = no span).
func (m *CostMeter) ChargeSpan(span obs.SpanID, c obs.Cost) {
	if m == nil {
		return
	}
	m.add(c)
	m.trace.AddCost(span, c)
}

func (m *CostMeter) add(c obs.Cost) {
	m.mu.Lock()
	m.total.Add(c)
	m.mu.Unlock()
}

// Cost returns everything billed so far; a window's bill is the difference
// of two readings (Cost.Sub).
func (m *CostMeter) Cost() obs.Cost {
	if m == nil {
		return obs.Cost{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Total returns the price of everything billed so far.
func (m *CostMeter) Total() USD { return Price(m.Cost()) }

// Get returns the billed amount for one label.
func (m *CostMeter) Get(label string) USD { return m.line(label).USD }

// Count returns the units billed under label: requests, or MiB·ns for
// LabelLambdaDuration.
func (m *CostMeter) Count(label string) int64 { return m.line(label).Count }

func (m *CostMeter) line(label string) Line {
	lines, _ := Bill(m.Cost())
	for _, l := range lines {
		if l.Label == label {
			return l
		}
	}
	return Line{}
}

// Labels returns the labels billed so far, in sorted order.
func (m *CostMeter) Labels() []string {
	lines, _ := Bill(m.Cost())
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = l.Label
	}
	return out
}

// Breakdown returns a formatted multi-line cost report.
func (m *CostMeter) Breakdown() string {
	lines, total := Bill(m.Cost())
	s := ""
	for _, l := range lines {
		s += fmt.Sprintf("%-24s %12s  (%d units)\n", l.Label, l.USD, l.Count)
	}
	s += fmt.Sprintf("%-24s %12s\n", "TOTAL", total)
	return s
}

// Standard meter labels used by the service simulators.
const (
	LabelLambdaDuration = "lambda.duration"
	LabelLambdaRequests = "lambda.requests"
	LabelS3Read         = "s3.read"
	LabelS3Write        = "s3.write"
	LabelS3List         = "s3.list"
	LabelSQS            = "sqs.requests"
	LabelDynamoRead     = "dynamo.read"
	LabelDynamoWrite    = "dynamo.write"
)
