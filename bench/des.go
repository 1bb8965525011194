package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/driver"
	"lambada/internal/obs"
	"lambada/internal/simclock"
)

// depSeed maps the benchmark seed to the seed of the script's i-th
// simulated deployment. The offset makes the default seed 33 reproduce
// BenchmarkStagedQ12Fleet's history point on deployment 0, which pairs
// tpch seed 33 with deployment seed 7.
func depSeed(seed int64, i int) int64 { return seed - 26 + 7919*int64(i) }

// idle is the virtual pause between the cold round and the warm rounds.
const idle = 2 * time.Second

// setupDES installs a workload on a fresh DES deployment: the same
// generate -> install -> upload a user pays, run as a DES process.
func (w *workload) setupDES(t tables, depSeed int64, tracer *obs.Tracer, inFlight int) (*deployment, error) {
	d := &deployment{k: simclock.New(), stage: w.stageConfig(true)}
	d.dep = driver.NewSimulated(d.k, depSeed)
	if tracer != nil {
		d.dep.EnableTracing(tracer)
	}
	cfg := w.config(true)
	if inFlight > 0 {
		cfg.MaxInFlight = inFlight
	}
	d.sess = driver.NewSession(d.dep, cfg)
	var err error
	d.k.Go("setup", func(p *simclock.Proc) { d.files, err = upload(d.sess, p, w.des, t) })
	d.k.Run()
	if err == nil && d.k.Deadlocked() {
		err = fmt.Errorf("DES kernel deadlocked during set-up")
	}
	return d, err
}

// meterSnap is the deployment's billing state at one instant. Dollars are
// summed over sorted labels: CostMeter.Total ranges over a map, and float
// addition in map order would not repeat to the last bit.
type meterSnap struct {
	usd     map[string]float64
	counts  map[string]int64
	mibNs   int64
	s3Bytes int64
	invokes int64
	cold    int64
	steps   uint64
	wakeups uint64
}

func snapMeter(d *deployment) meterSnap {
	s := meterSnap{usd: map[string]float64{}, counts: map[string]int64{}}
	for _, l := range d.dep.Meter.Labels() {
		s.usd[l] = float64(d.dep.Meter.Get(l))
		s.counts[l] = d.dep.Meter.Count(l)
	}
	s.mibNs = d.dep.Lambda.BilledMiBNs()
	s.s3Bytes = d.dep.S3.ReadBytes()
	s.invokes, s.cold = d.dep.Lambda.Invocations()
	s.steps, s.wakeups = d.k.Steps(), d.k.CompletionWakeups()
	return s
}

// add accumulates another deployment's movement.
func (s *meterSnap) add(o meterSnap) {
	if s.usd == nil {
		s.usd, s.counts = map[string]float64{}, map[string]int64{}
	}
	for l, v := range o.usd {
		s.usd[l] += v
	}
	for l, v := range o.counts {
		s.counts[l] += v
	}
	s.mibNs += o.mibNs
	s.s3Bytes += o.s3Bytes
	s.invokes, s.cold = s.invokes+o.invokes, s.cold+o.cold
	s.steps, s.wakeups = s.steps+o.steps, s.wakeups+o.wakeups
}

// sub returns the movement since before.
func (s meterSnap) sub(before meterSnap) meterSnap {
	out := meterSnap{usd: map[string]float64{}, counts: map[string]int64{}}
	for l, v := range s.usd {
		out.usd[l] = v - before.usd[l]
	}
	for l, v := range s.counts {
		out.counts[l] = v - before.counts[l]
	}
	out.mibNs = s.mibNs - before.mibNs
	out.s3Bytes = s.s3Bytes - before.s3Bytes
	out.invokes, out.cold = s.invokes-before.invokes, s.cold-before.cold
	out.steps, out.wakeups = s.steps-before.steps, s.wakeups-before.wakeups
	return out
}

func (s meterSnap) dollars(prefixes ...string) float64 {
	labels := make([]string, 0, len(s.usd))
	for l := range s.usd {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var sum float64
	for _, l := range labels {
		if len(prefixes) == 0 {
			sum += s.usd[l]
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(l, p) {
				sum += s.usd[l]
			}
		}
	}
	return sum
}

// requests is what the bill counts per call: S3 get+put+list, SQS and
// DynamoDB requests.
func (s meterSnap) requests() int64 {
	return s.s3Requests() + s.counts[pricing.LabelSQS] + s.counts[pricing.LabelDynamoRead] + s.counts[pricing.LabelDynamoWrite]
}

func (s meterSnap) s3Requests() int64 {
	return s.counts[pricing.LabelS3Read] + s.counts[pricing.LabelS3Write] + s.counts[pricing.LabelS3List]
}

// script is the outcome of the sequential DES script, played on one fresh
// deployment after another. A virtual latency is mostly the luck of one
// deployment's draws (a cold query waits for the slowest of its cold
// starts), so a run samples several and reports medians over them.
type script struct {
	tl       *tally
	vRoundMs [][]float64 // per deployment and round: summed Report.Duration of its queries, virtual ms
	reports  []*driver.Report
	cold     meterSnap // deployment 0's cold round, its own bill (continuity check)
	bill     meterSnap // every deployment's whole script, idle included
	host     cost      // host cost of the rounds (what a DES workload's host metrics are)
	tracer   *obs.Tracer
}

func (s *script) queries() float64 { return float64(len(s.reports)) }

// coldMs and warmMs pool the deployments' rounds.
func (s *script) coldMs() (out []float64) {
	for _, d := range s.vRoundMs {
		out = append(out, d[0])
	}
	return out
}

func (s *script) warmMs() (out []float64) {
	for _, d := range s.vRoundMs {
		out = append(out, d[1:]...)
	}
	return out
}

// runScript plays the workload's rounds on `deployments` loaded DES
// deployments in turn, the first of them given: one cold round, the idle
// pause, then `warm` rounds, all from one driver process. Every result is
// checked; a deadlocked kernel counts as a failure.
func (w *workload) runScript(first *deployment, t tables, orc *oracle, seed int64, warm, deployments int, rec *recorder, parent int) (*script, error) {
	s := &script{tl: newTally(), tracer: first.dep.Trace}
	for i := 0; i < deployments; i++ {
		d := first
		if i > 0 {
			var err error
			if d, err = w.setupDES(t, depSeed(seed, i), nil, 0); err != nil {
				return nil, fmt.Errorf("DES set-up %d: %w", i, err)
			}
		}
		vms := make([]float64, 0, warm+1)
		d.k.Go("driver", func(p *simclock.Proc) {
			runtime.GC()
			before := snapMeter(d)
			win := openWindow()
			for r := 0; r <= warm; r++ {
				if r == 1 {
					p.Sleep(idle)
				}
				v, reps := w.runRound(d, p, orc, w.round(seed, i, r), s.tl, rec, parent, i*(warm+1)+r+1)
				vms = append(vms, ms(v))
				s.reports = append(s.reports, reps...)
				if i == 0 && r == 0 {
					s.cold = snapMeter(d).sub(before)
				}
			}
			s.host.add(win.close())
			s.bill.add(snapMeter(d).sub(before))
		})
		d.k.Run()
		if d.k.Deadlocked() {
			s.tl.query("kernel", 0, fmt.Errorf("DES kernel deadlocked"))
		}
		if len(vms) != warm+1 {
			return s, fmt.Errorf("DES script on deployment %d stopped after %d of %d rounds: %v", i, len(vms), warm+1, s.tl.firstErr)
		}
		s.vRoundMs = append(s.vRoundMs, vms)
	}
	return s, nil
}

// concurrent is the outcome of the admission phase: `streams` rounds started
// at the same virtual instant on one warm deployment under a shared
// admission cap.
type concurrent struct {
	tl      *tally
	meanVMs float64
	peak    int
	blocked uint64
}

// admissionCap is the deployment-wide in-flight cap of the admission phase
// for workloads whose own configuration has none.
const admissionCap = 128

// runConcurrent warms a fresh deployment with one round, then runs
// w.conc streams of one round each as concurrent DES processes.
func (w *workload) runConcurrent(t tables, orc *oracle, seed int64) (*concurrent, error) {
	inFlight := w.inFlight
	if inFlight == 0 {
		inFlight = admissionCap
	}
	d, err := w.setupDES(t, depSeed(seed, 0), nil, inFlight)
	if err != nil {
		return nil, err
	}
	c := &concurrent{tl: newTally()}
	vms := make([]float64, w.conc)
	d.k.Go("warm-up", func(p *simclock.Proc) {
		w.runRound(d, p, orc, w.round(seed, 0, 0), c.tl, nil, 0, 0)
		for s := 0; s < w.conc; s++ {
			s := s
			d.k.Go(fmt.Sprintf("stream%d", s), func(p *simclock.Proc) {
				v, _ := w.runRound(d, p, orc, w.round(seed, s, 1), c.tl, nil, 0, 0)
				vms[s] = ms(v)
			})
		}
	})
	d.k.Run()
	if d.k.Deadlocked() {
		c.tl.query("kernel", 0, fmt.Errorf("DES kernel deadlocked"))
	}
	c.meanVMs = mean(vms)
	if adm := d.sess.Admission(); adm != nil {
		c.peak, c.blocked = adm.Peak(), adm.Blocked()
	}
	return c, nil
}
