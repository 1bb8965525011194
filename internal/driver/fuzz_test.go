package driver

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"lambada/internal/lpq"
	"lambada/internal/stageplan"
	"lambada/internal/worker"
)

// FuzzResultMessage: a result-queue body is outside bytes to the driver that
// receives it. Whatever they are, receipt on a scheduler of two launched
// stages — scan stage 1 feeding stage 0, two workers each — discards the
// message, records it (a winner, a relaunch, a seal) or returns the query's
// typed StageFailure, never a panic; a winner's result chunk decodes to a
// chunk or an error.
func FuzzResultMessage(f *testing.F) {
	for _, rm := range []worker.Result{
		{QueryID: "q1", Epoch: 3, Stage: 1, WorkerID: 1, ProcessingNs: 5, Offsets: []int64{0, 10, 20}},
		{QueryID: "q1", Epoch: 3, Stage: 0, WorkerID: 0, Chunk: []byte("not an lpq blob")},
		{QueryID: "q1", Epoch: 3, Stage: 1, WorkerID: 0, Err: "boom", Retryable: true},
		{QueryID: "q1", Epoch: 3, Stage: 0, WorkerID: 1, Attempt: 1, Err: "boom"},
		{QueryID: "q1", Epoch: 2, Stage: 1},
	} {
		body, _ := json.Marshal(rm)
		f.Add(body)
	}
	f.Add([]byte(`{"queryId":`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := &scheduler{queryID: "q1", epoch: 3, byID: map[int]*stageRun{}}
		s.add(&stageplan.Stage{ID: 1}, worker.Payload{}, make([]worker.Share, 2))
		s.add(&stageplan.Stage{ID: 0, DependsOn: []int{1}}, worker.Payload{}, make([]worker.Share, 2))
		for _, r := range s.runs {
			s.launched(r, []int{0, 1}, 0)
		}
		rm, r, out, err := s.receipt(time.Millisecond, time.Millisecond, body)
		var sf *StageFailure
		switch {
		case err != nil:
			if !errors.As(err, &sf) || r == nil {
				t.Fatalf("error %v (run %v), want a StageFailure of a run", err, r)
			}
		case r == nil:
			if out != nothing || s.zombieDiscards+s.loserDiscards != 1 {
				t.Fatalf("discarded with outcome %d, %d zombie and %d loser discards counted", out, s.zombieDiscards, s.loserDiscards)
			}
		case out == relaunch:
			if r.attempts[rm.WorkerID] != 1 {
				t.Fatalf("relaunch of worker %d at attempt %d", rm.WorkerID, r.attempts[rm.WorkerID])
			}
		default:
			if _, won := r.winners[rm.WorkerID]; !won {
				t.Fatalf("outcome %d for worker %d, which is not recorded as a winner", out, rm.WorkerID)
			}
			if len(rm.Chunk) > 0 {
				if c, err := lpq.ReadFiles(16<<20, rm.Chunk); err == nil && c == nil {
					t.Fatal("a winner's chunk decoded to neither a chunk nor an error")
				}
			}
		}
	})
}

// FuzzEpochValue: an epoch item is outside bytes to the driver that reads
// it. parseEpochValue accepts it or not, never panicking, and what it accepts
// formats back (formatEpochValue) to an item that parses to the same epoch
// and instant.
func FuzzEpochValue(f *testing.F) {
	for _, seed := range []string{"1@0", "7@123456789", "0@5", "3@-1", "3", "+2@007", "9223372036854775807@1", ""} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, v []byte) {
		epoch, at, ok := parseEpochValue(v)
		if !ok {
			return
		}
		if epoch < 1 || at < 0 {
			t.Fatalf("accepted %q as epoch %d at %d", v, epoch, at)
		}
		back := formatEpochValue(epoch, at)
		if e, a, ok := parseEpochValue(back); !ok || e != epoch || a != at {
			t.Fatalf("%q parsed to (%d, %d); formatted back, %q parses to (%d, %d, %t)", v, epoch, at, back, e, a, ok)
		}
	})
}
