package driver

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lambada/internal/stageplan"
)

// TestSchedulerTransitions drives the stage state machine alone — no kernel,
// no deployment, instants passed in — over one plan shape: scan stages 1 and
// 2 (two workers each) feeding the four-worker result stage 0. Every step is
// one transition and what it must answer.
func TestSchedulerTransitions(t *testing.T) {
	const ms = time.Millisecond
	type step struct {
		do   func(s *scheduler) string
		want string
	}
	// capOf is where a run's cap window starts, in ms (-1: unarmed).
	capOf := func(r *stageRun) int64 {
		if r.capFrom < 0 {
			return -1
		}
		return r.capFrom.Milliseconds()
	}
	// can asks launchable of the stages, in launch order.
	can := func(want string) step {
		return step{func(s *scheduler) string {
			var b strings.Builder
			for _, r := range s.runs {
				fmt.Fprintf(&b, "%d:%t ", r.st.ID, s.launchable(r))
			}
			return strings.TrimSpace(b.String())
		}, want}
	}
	// launch records a launch pass; it answers whether the stage launched and
	// where its cap window starts (-1: unarmed).
	launch := func(stage, tokens int, from, now time.Duration, want string) step {
		return step{func(s *scheduler) string {
			r := s.byID[stage]
			first := s.launched(r, tokens, from, now)
			return fmt.Sprintf("%t cap=%d", first, capOf(r))
		}, want}
	}
	launchAll := func(now time.Duration) step {
		return step{func(s *scheduler) string {
			for _, r := range s.runs {
				s.launched(r, len(r.payloads), now, now)
			}
			return ""
		}, ""}
	}
	msg := func(now time.Duration, rm resultMsg, want string) step {
		return step{func(s *scheduler) string {
			if rm.QueryID == "" {
				rm.QueryID, rm.Epoch = s.queryID, s.epoch
			}
			r, out, err := s.message(now, &rm)
			var sf *StageFailure
			switch {
			case errors.As(err, &sf):
				return fmt.Sprintf("StageFailure stage=%d worker=%d attempt=%d retryable=%t", sf.Stage, sf.Worker, sf.Attempt, sf.Retryable)
			case err != nil:
				return err.Error()
			case r == nil:
				return fmt.Sprintf("discarded zombie=%d loser=%d", s.zombieDiscards, s.loserDiscards)
			case out == relaunch:
				return fmt.Sprintf("relaunch attempt=%d seals=%d", r.attempts[rm.WorkerID], s.rep.FailureSeals)
			case out == sealed:
				return fmt.Sprintf("sealed awaited=%t", r.awaited)
			}
			return "nothing"
		}, want}
	}
	win := func(now time.Duration, stage, worker int, want string) step {
		return msg(now, resultMsg{Stage: stage, WorkerID: worker}, want)
	}
	mark := func(stage int, now time.Duration) step {
		return step{func(s *scheduler) string { s.marked(s.byID[stage], now); return fmt.Sprint(s.done()) }, "false"}
	}
	// arm answers every stage's cap-window start after armCaps(now).
	arm := func(now time.Duration, want string) step {
		return step{func(s *scheduler) string {
			s.armCaps(now)
			var b strings.Builder
			for _, r := range s.runs {
				fmt.Fprintf(&b, "%d:%d ", r.st.ID, capOf(r))
			}
			return strings.TrimSpace(b.String())
		}, want}
	}
	// backups answers stragglers(now) as stage/worker@attempt.
	backups := func(now time.Duration, want string) step {
		return step{func(s *scheduler) string {
			var b strings.Builder
			for _, bk := range s.stragglers(now) {
				fmt.Fprintf(&b, "%d/%d@%d ", bk.run.st.ID, bk.worker, bk.run.attempts[bk.worker])
			}
			return strings.TrimSpace(b.String())
		}, want}
	}
	fail := func(stage, worker, attempt int, retryable bool) resultMsg {
		return resultMsg{Stage: stage, WorkerID: worker, Attempt: attempt, Err: "boom", Retryable: retryable}
	}

	spec := DefaultSpeculateConfig()
	cases := []struct {
		name  string
		spec  SpeculateConfig
		cap   time.Duration
		waves bool
		steps []step
	}{
		{name: "discards", steps: []step{
			launch(1, 2, 0, 10*ms, "true cap=10"),
			msg(20*ms, resultMsg{QueryID: "q1", Epoch: 2, Stage: 1}, "discarded zombie=1 loser=0"), // older epoch
			msg(20*ms, resultMsg{QueryID: "q9", Epoch: 3, Stage: 1}, "discarded zombie=2 loser=0"),
			win(20*ms, 7, 0, "discarded zombie=2 loser=1"),  // unknown stage
			win(20*ms, 2, 0, "discarded zombie=2 loser=2"),  // stage not launched
			win(20*ms, 1, 2, "discarded zombie=3 loser=2"),  // worker out of range
			win(20*ms, 1, -1, "discarded zombie=4 loser=2"), // worker out of range
			win(20*ms, 1, 0, "nothing"),
			msg(30*ms, resultMsg{Stage: 1, WorkerID: 0, Attempt: 1}, "discarded zombie=4 loser=3"), // loser after winner
			msg(30*ms, fail(1, 0, 1, false), "discarded zombie=4 loser=4"),                         // and a failed loser
		}},
		{name: "superseded failure seal", spec: spec, steps: []step{
			launch(1, 2, 0, 10*ms, "true cap=10"),
			win(20*ms, 1, 0, "nothing"),
			backups(60*ms, "1/1@1"), // quorum 1 of 2, median 10ms: worker 1 is overdue past +30ms
			// The straggling original dies after its backup went out: the
			// budget (MaxRetries 1) is spent, yet the live attempt 1 decides.
			msg(70*ms, fail(1, 1, 0, true), "discarded zombie=0 loser=1"),
			msg(70*ms, fail(1, 1, 0, false), "discarded zombie=0 loser=2"),
			msg(80*ms, resultMsg{Stage: 1, WorkerID: 1, Attempt: 1}, "sealed awaited=true"),
		}},
		{name: "duplicate of a relaunched failure seal", steps: []step{
			launch(1, 2, 0, 10*ms, "true cap=10"),
			msg(20*ms, fail(1, 0, 0, true), "relaunch attempt=1 seals=1"),
			msg(21*ms, fail(1, 0, 0, true), "discarded zombie=0 loser=1"), // the SQS duplicate
			msg(30*ms, fail(1, 0, 1, true), "StageFailure stage=1 worker=0 attempt=1 retryable=true"),
		}},
		{name: "non-retryable failure", spec: spec, steps: []step{
			launch(1, 2, 0, 10*ms, "true cap=10"),
			msg(20*ms, fail(1, 1, 0, false), "StageFailure stage=1 worker=1 attempt=0 retryable=false"),
		}},
		{name: "seals and rule 2", steps: []step{
			launchAll(0),
			win(10*ms, 1, 1, "nothing"),
			win(11*ms, 1, 0, "sealed awaited=true"),
			mark(1, 12*ms),
			win(13*ms, 1, 0, "discarded zombie=0 loser=1"), // a loser after the stage sealed
			win(20*ms, 0, 0, "nothing"),
			win(20*ms, 0, 1, "nothing"),
			win(20*ms, 0, 2, "nothing"),
			win(20*ms, 0, 3, "sealed awaited=false"), // nobody waits on the result stage
		}},
		{name: "pipelined launch gate", steps: []step{
			can("1:true 2:true 0:false"),
			launch(1, 0, 0, 0, "false cap=-1"), // admission granted nothing: not launched
			launch(1, 1, 0, 5*ms, "true cap=5"),
			can("1:true 2:true 0:false"), // a partial grant keeps the run launchable
			launch(1, 1, 5*ms, 9*ms, "false cap=5"),
			can("1:false 2:true 0:false"), // one producer's whole fleet is not both
			launch(2, 2, 9*ms, 12*ms, "true cap=12"),
			can("1:false 2:false 0:true"), // launched, not sealed, is enough
		}},
		{name: "waves wait for seals", waves: true, steps: []step{
			launch(1, 2, 0, 0, "true cap=0"),
			launch(2, 2, 0, 0, "true cap=0"),
			can("1:false 2:false 0:false"),
			win(10*ms, 1, 0, "nothing"),
			win(10*ms, 1, 1, "sealed awaited=true"),
			mark(1, 10*ms),
			can("1:false 2:false 0:false"),
			win(11*ms, 2, 0, "nothing"),
			win(11*ms, 2, 1, "sealed awaited=true"),
			mark(2, 11*ms),
			can("1:false 2:false 0:true"),
			launch(0, 4, 11*ms, 20*ms, "true cap=20"), // producers sealed: armed at launch
		}},
		{name: "cap armed at the last producer's seal", cap: time.Second, steps: []step{
			launch(1, 2, 0, 1*ms, "true cap=1"), // a scan stage depends on nothing: armed at launch
			launch(2, 2, 1*ms, 2*ms, "true cap=2"),
			launch(0, 4, 2*ms, 3*ms, "true cap=-1"), // idling on the ready barrier is not straggling
			win(10*ms, 1, 0, "nothing"),
			win(10*ms, 1, 1, "sealed awaited=true"),
			mark(1, 10*ms),
			arm(11*ms, "1:10 2:2 0:-1"), // stage 1's window moved with its responses
			win(20*ms, 2, 0, "nothing"),
			win(20*ms, 2, 1, "sealed awaited=true"),
			mark(2, 20*ms),
			arm(22*ms, "1:10 2:20 0:22"),
			arm(30*ms, "1:10 2:20 0:22"), // armed once
		}},
		{name: "quorum and median", spec: spec, steps: []step{
			launchAll(0),
			win(100*ms, 0, 0, "nothing"),
			win(110*ms, 0, 1, "nothing"),
			backups(time.Minute, ""), // 2 of 4 is below the quorum of 3, and no cap is set
			win(120*ms, 0, 2, "nothing"),
			backups(330*ms, ""),      // median 110ms × 3
			backups(331*ms, "0/3@1"), // stages 1 and 2 have no response: no quorum
			backups(time.Minute, ""), // MaxRetries 1: one backup per worker
			msg(400*ms, resultMsg{Stage: 0, WorkerID: 3, Attempt: 1}, "sealed awaited=false"),
		}},
		{name: "cap expiry re-invokes the missing set", spec: spec, cap: time.Second, steps: []step{
			launch(1, 2, 0, 0, "true cap=0"),
			launch(2, 1, 0, 0, "true cap=0"), // worker 1 still waits for admission
			launch(0, 4, 0, 0, "true cap=-1"),
			backups(1000*ms, ""),
			backups(1001*ms, "1/0@1 1/1@1 2/0@1"), // never-launched 2/1 and unarmed stage 0 are no stragglers
			backups(time.Minute, ""),              // budget spent
		}},
		{name: "progress defers the cap", spec: SpeculateConfig{Enabled: true, MaxRetries: 2}, cap: time.Second, steps: []step{
			launch(0, 4, 0, 0, "true cap=-1"),
			arm(0, "1:-1 2:-1 0:-1"), // producers not sealed
			launch(1, 2, 0, 0, "true cap=0"),
			win(900*ms, 1, 0, "nothing"),
			backups(1500*ms, ""),      // without that response the cap had expired at +1s
			backups(1901*ms, "1/1@1"), // 1s after the last response; the window restarts
			backups(2700*ms, ""),
			backups(2701*ms, "1/1@2"), // the median rule (900ms × 3) runs beside the cap
			backups(time.Minute, ""),  // budget spent
		}},
		{name: "speculation off", cap: time.Second, steps: []step{
			launchAll(0),
			backups(time.Hour, ""),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &scheduler{queryID: "q1", epoch: 3, speculate: tc.spec,
				maxStageWait: tc.cap, waves: tc.waves, byID: map[int]*stageRun{}}
			s.add(&stageplan.Stage{ID: 1}, make([]workerPayload, 2))
			s.add(&stageplan.Stage{ID: 2}, make([]workerPayload, 2))
			s.add(&stageplan.Stage{ID: 0, DependsOn: []int{1, 2}}, make([]workerPayload, 4))
			for i, st := range tc.steps {
				if got := st.do(s); got != st.want {
					t.Fatalf("step %d: got %q, want %q", i, got, st.want)
				}
			}
		})
	}
}
