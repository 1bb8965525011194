package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/invoke"
	"lambada/internal/netmodel"
	"lambada/internal/simclock"
)

// Figure5Config parameterizes the two-level invocation experiment: starting
// P workers from a freshly created function (cold start) via the √P tree.
type Figure5Config struct {
	Workers int
	Region  netmodel.Region
	Seed    int64
}

// DefaultFigure5 uses the paper's 4096 workers from the EU region.
func DefaultFigure5() Figure5Config {
	return Figure5Config{Workers: 4096, Region: netmodel.RegionEU, Seed: 1}
}

// Figure5Worker is the timeline of one first-generation worker, in the
// order the driver invoked them — the three phases plotted in Figure 5.
type Figure5Worker struct {
	ID int
	// BeforeOwnInvocation is the time the driver took to launch all
	// previous first-generation workers.
	BeforeOwnInvocation time.Duration
	// OwnInvocation is the time between the driver issuing this worker's
	// invocation and the worker running (network + cold start).
	OwnInvocation time.Duration
	// InvokingWorkers is the time this worker spent starting its
	// second-generation children.
	InvokingWorkers time.Duration
}

// Figure5Result is the complete experiment outcome.
type Figure5Result struct {
	Workers        int
	FirstGen       []Figure5Worker
	LastInitiated  time.Duration // when the last worker's invocation was initiated
	AllRunning     time.Duration // when every worker had started
	DirectEstimate time.Duration // what the driver alone would need (Table 1 rates)
}

type fig5Payload struct {
	ID       int   `json:"id"`
	Children []int `json:"children,omitempty"`
	IssuedAt int64 `json:"issuedAt"` // virtual ns when the driver/parent issued it
}

// Figure5 runs the two-level invocation of cfg.Workers functions on the DES
// kernel and records the per-phase timeline.
func Figure5(cfg Figure5Config) *Figure5Result {
	k := simclock.New()
	meter := pricing.NewCostMeter()
	lcfg := lambdasvc.DefaultAWSConfig(meter, cfg.Seed)
	prof := netmodel.InvokeProfiles[cfg.Region]
	lcfg.InvokeLatency = netmodel.Uniform{Min: prof.SingleLatency - prof.SingleLatency/6, Max: prof.SingleLatency + prof.SingleLatency/4}
	svc := lambdasvc.New(lcfg, lambdasvc.SimRuntime{K: k})

	firstGenIDs, children := invoke.TreeFanout(cfg.Workers)
	res := &Figure5Result{
		Workers:  cfg.Workers,
		FirstGen: make([]Figure5Worker, len(firstGenIDs)),
	}
	type started struct {
		id int
		at time.Duration
	}
	var startTimes []started
	workerPacing := invoke.WorkerPacing(cfg.Region)

	svc.CreateFunction("fig5-worker", 2048, time.Minute, func(ctx *lambdasvc.Ctx, payload []byte) error {
		var p fig5Payload
		if err := json.Unmarshal(payload, &p); err != nil {
			return err
		}
		now := ctx.Env.Now()
		startTimes = append(startTimes, started{id: p.ID, at: now})
		if p.ID < len(res.FirstGen) {
			res.FirstGen[p.ID].OwnInvocation = now - time.Duration(p.IssuedAt)
			invStart := now
			for _, child := range p.Children {
				body, err := json.Marshal(fig5Payload{ID: child, IssuedAt: int64(ctx.Env.Now())})
				if err != nil {
					return err
				}
				// Pipelined: the worker's requester threads overlap the
				// API round trips; the intra-region rate paces the loop.
				if err := svc.Invoke(ctx.Env, "fig5-worker", body, lambdasvc.InvokeOptions{WorkerID: child, Pipelined: true}); err != nil {
					return err
				}
				ctx.Env.Sleep(workerPacing.Gap())
			}
			res.FirstGen[p.ID].InvokingWorkers = ctx.Env.Now() - invStart
			if len(p.Children) > 0 {
				if at := ctx.Env.Now(); at > res.LastInitiated {
					res.LastInitiated = at
				}
			}
		}
		return nil
	})

	k.Go("driver", func(p *simclock.Proc) {
		for gi, id := range firstGenIDs {
			res.FirstGen[gi].ID = id
			res.FirstGen[gi].BeforeOwnInvocation = p.Now()
			body, err := json.Marshal(fig5Payload{ID: id, Children: children[gi], IssuedAt: int64(p.Now())})
			if err != nil {
				panic(err)
			}
			if err := svc.Invoke(p, "fig5-worker", body, lambdasvc.InvokeOptions{WorkerID: id}); err != nil {
				panic(fmt.Sprintf("invoking first-gen %d: %v", id, err))
			}
		}
		if at := p.Now(); at > res.LastInitiated {
			res.LastInitiated = at
		}
	})
	k.Run()

	for _, s := range startTimes {
		if s.at > res.AllRunning {
			res.AllRunning = s.at
		}
	}
	res.DirectEstimate = invoke.DirectDuration(invoke.DriverPacing(cfg.Region, invoke.RequesterThreads), cfg.Workers)
	return res
}

// Figure5Figure renders the per-first-gen-worker phase timeline.
func Figure5Figure(res *Figure5Result) *Figure {
	f := &Figure{ID: "Figure 5", Title: fmt.Sprintf("Two-level invocation of %d workers", res.Workers),
		XLabel: "worker ID", YLabel: "time [s]"}
	var before, own, inv Series
	before.Label = "Before own invocation"
	own.Label = "Own invocation"
	inv.Label = "Invoking workers"
	for i, w := range res.FirstGen {
		x := float64(i)
		before.Points = append(before.Points, Point{X: x, Y: w.BeforeOwnInvocation.Seconds()})
		own.Points = append(own.Points, Point{X: x, Y: w.OwnInvocation.Seconds()})
		inv.Points = append(inv.Points, Point{X: x, Y: w.InvokingWorkers.Seconds()})
	}
	f.Series = []Series{before, own, inv}
	return f
}
