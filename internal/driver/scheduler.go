package driver

import (
	"slices"
	"time"

	"lambada/internal/obs"
	"lambada/internal/stageplan"
)

// stageState tracks one stage through the scheduler.
type stageState int

const (
	stagePending  stageState = iota // not yet invoked
	stageLaunched                   // fleet invoked (at least in part), seals outstanding
	stageSealed                     // every worker sealed, ready marker written
)

// stageRun is everything the scheduler knows about one stage of one query.
type stageRun struct {
	st       *stageplan.Stage
	payloads []workerPayload // attempt-0 payloads, one per worker
	// awaited: some other run depends on this one, so its seal writes a
	// DynamoDB ready marker (rule 2 of runStages).
	awaited bool
	state   stageState
	// pending are the launch units not yet invoked, built on first launch;
	// launched counts the workers the invoked ones spawn. A launch pass
	// invokes as many units as admission grants and resumes on later passes.
	pending  []launchUnit
	launched int

	launchedAt time.Duration
	sealedAt   time.Duration
	// winners records, per worker, the attempt whose seal arrived first.
	// Later seals of the same worker — the losing half of a backup pair —
	// are ignored; their boundary files are swept after the query. chunks
	// holds the winners' result chunks by worker (lpq blobs; empty from a
	// stage that publishes a boundary instead).
	winners map[int]int
	chunks  [][]byte
	// attempts counts the re-invocations issued per worker — failure
	// relaunches and speculation backups alike; attempts[w] is also the
	// attempt number of the latest invocation of w.
	attempts map[int]int
	// responses holds the winners' latencies since launchedAt, kept SORTED by
	// a binary-search insert (message): the median read in overdue is O(1) instead
	// of a re-sort per event-loop pass — at 4k workers the loop asks once per
	// message batch per stage, and a copy+sort made each ask O(n²).
	responses []time.Duration
	// capFrom is where the no-progress liveness window starts; negative
	// until the stage is runnable. Once armed, scheduler.maxStageWait of
	// virtual time without ANY response (the window restarts on every one)
	// re-invokes the missing workers even though the quorum/median policy
	// never armed — covering both the all-stragglers case (quorum arithmetic
	// needs at least one response) and a sub-quorum stall. A fleet making
	// progress keeps deferring the cap, so on-pace workers are never
	// mass-re-invoked.
	capFrom    time.Duration
	speculated int
	// span is the stage's trace span (0 when tracing is off): opened at
	// payload build, re-timed to the launch instant, ended at the seal.
	span obs.SpanID
}

// outcome is what a result message asks of the driver.
type outcome int

const (
	nothing  outcome = iota // recorded or discarded; no I/O follows
	relaunch                // a retryable failure seal: re-invoke the worker's next attempt
	sealed                  // the stage's last winner: write its marker, then call marked
)

// backup is one straggler to re-invoke as its next attempt.
type backup struct {
	run    *stageRun
	worker int
}

// scheduler is the stage state machine of one query: the stage runs, the
// policy that moves them pending → launched → sealed, and the Report counters
// the transitions feed. It holds no environment or deployment, reads no clock
// and issues no request: a transition takes the instant as an argument, and
// its result tells the caller (runStages) what to do on the substrate.
type scheduler struct {
	queryID   string
	epoch     int
	speculate SpeculateConfig
	// maxStageWait is StageConfig.MaxStageWait, the liveness cap of every
	// stage (0: none); waves is the Config.testWaveLaunch seam.
	maxStageWait time.Duration
	waves        bool

	runs    []*stageRun // in launch order: producers precede consumers
	byID    map[int]*stageRun
	nSealed int
	// rep accumulates what the transitions count: Workers, Invocation,
	// WorkerProcessing, ColdWorkers, Speculated, FailureSeals, WorkerRetries.
	rep                           Report
	zombieDiscards, loserDiscards int
}

// add appends the run of stage st — after the runs of the stages it depends
// on — and marks those awaited.
func (s *scheduler) add(st *stageplan.Stage, payloads []workerPayload) *stageRun {
	r := &stageRun{st: st, payloads: payloads, winners: map[int]int{}, chunks: make([][]byte, len(payloads)),
		attempts: map[int]int{}, capFrom: -1}
	for _, dep := range st.DependsOn {
		if p := s.byID[dep]; p != nil {
			p.awaited = true
		}
	}
	s.runs = append(s.runs, r)
	s.byID[st.ID] = r
	return r
}

func (s *scheduler) done() bool { return s.nSealed == len(s.runs) }

// missing counts the launched stages' outstanding seals.
func (s *scheduler) missing() int {
	n := 0
	for _, r := range s.runs {
		if r.state == stageLaunched {
			n += len(r.payloads) - len(r.winners)
		}
	}
	return n
}

func (s *scheduler) depsSealed(r *stageRun) bool {
	for _, dep := range r.st.DependsOn {
		if p := s.byID[dep]; p == nil || p.state != stageSealed {
			return false
		}
	}
	return true
}

// launchable reports whether r may take admission tokens now; a partially
// launched fleet stays launchable. The policy is pipelined launch: a stage is
// invoked before its producers seal — its cold starts overlap their
// execution; the DynamoDB ready barrier, not the launch, gates its collects —
// but only once every producer it depends on has its WHOLE fleet launched.
// Producers then always make progress with the tokens they hold, so
// token-holding consumers parked on a ready barrier are never waiting on a
// producer that admission starved — the inductive liveness argument bottoms
// out at scan stages, which depend on nothing. Under waves: once they sealed.
func (s *scheduler) launchable(r *stageRun) bool {
	if r.launched == len(r.payloads) {
		return false
	}
	if s.waves {
		return s.depsSealed(r)
	}
	for _, dep := range r.st.DependsOn {
		if p := s.byID[dep]; p != nil && p.launched < len(p.payloads) {
			return false
		}
	}
	return true
}

// launched records a launch pass over r, from from to now, that invoked units
// worth tokens workers, and reports whether it launched the stage (its first
// worker). The all-stragglers liveness cap starts ticking once the stage is
// runnable: at launch for stages whose producers already sealed (scan stages,
// wave-gated launches), on the last producer's seal otherwise (armCaps) — a
// pipelined consumer idling on the ready barrier is not straggling.
func (s *scheduler) launched(r *stageRun, tokens int, from, now time.Duration) bool {
	r.launched += tokens
	s.rep.Invocation += now - from
	if r.state != stagePending || r.launched == 0 {
		return false
	}
	r.state = stageLaunched
	r.launchedAt = now
	if s.depsSealed(r) {
		r.capFrom = now
	}
	s.rep.Workers += len(r.payloads)
	return true
}

// message consumes one result message at instant now. It returns the run the
// message counted for (nil: discarded) and what the driver must do about it;
// the error is the query's terminal StageFailure.
func (s *scheduler) message(now time.Duration, rm *resultMsg) (*stageRun, outcome, error) {
	if rm.QueryID != s.queryID || rm.Epoch != s.epoch {
		// Leftover of an earlier aborted query — including a zombie worker of
		// an aborted identically-numbered run posting its seal after this
		// run's purge: its older epoch fences it out.
		s.zombieDiscards++
		return nil, nothing, nil
	}
	r := s.byID[rm.Stage]
	if r == nil || r.state != stageLaunched {
		s.loserDiscards++ // unknown stage, or a loser sealing after the stage did
		return nil, nothing, nil
	}
	w := rm.WorkerID
	if w < 0 || w >= len(r.payloads) {
		// A seal from a worker the stage does not have is a stray, whoever
		// wrote it: counted as a winner it would seal the stage one real
		// worker early, and relaunching it has no payload.
		s.zombieDiscards++
		return nil, nothing, nil
	}
	if _, dup := r.winners[w]; dup || (rm.Err != "" && rm.Attempt < r.attempts[w]) {
		// The losing half of a backup pair — its files are swept later — or the
		// failure of an attempt a later one superseded (the straggling original
		// dying after its backup went out, an SQS duplicate of a failure seal
		// already relaunched): the live attempt still runs, and only a worker's
		// latest attempt can cost a relaunch or fail the query.
		s.loserDiscards++
		return nil, nothing, nil
	}
	s.rep.WorkerRetries += rm.Retries
	if rm.Err != "" {
		// Failure seal. A retryable one — the worker exhausted its substrate
		// retry budget, or died of a crash-class error — is re-invoked
		// through the attempt machinery: the fresh attempt namespaces its
		// boundary publishes exactly like a speculation backup, so it cannot
		// race the dead original. Every invocation gets at least one relaunch
		// even with speculation disabled; deterministic plan or data errors
		// fail the query immediately with a structured error.
		if rm.Retryable && r.attempts[w] < max(s.speculate.MaxRetries, 1) {
			r.attempts[w]++
			s.rep.FailureSeals++
			return r, relaunch, nil
		}
		return r, nothing, &StageFailure{QueryID: s.queryID, Stage: rm.Stage, Worker: w, Attempt: rm.Attempt, Retryable: rm.Retryable, Msg: rm.Err}
	}
	r.winners[w], r.chunks[w] = rm.Attempt, rm.Chunk
	if rm.Cold {
		s.rep.ColdWorkers++
	}
	s.rep.WorkerProcessing = append(s.rep.WorkerProcessing, time.Duration(rm.ProcessingNs))
	i, _ := slices.BinarySearch(r.responses, now-r.launchedAt)
	r.responses = slices.Insert(r.responses, i, now-r.launchedAt)
	if r.capFrom >= 0 {
		r.capFrom = now // progress defers the liveness cap
	}
	if len(r.winners) < len(r.payloads) {
		return r, nothing, nil
	}
	return r, sealed, nil
}

// marked seals r at now: its last winner reported and, if anyone awaits it,
// its ready marker is written.
func (s *scheduler) marked(r *stageRun, now time.Duration) {
	r.state = stageSealed
	r.sealedAt = now
	s.nSealed++
}

// armCaps starts, at now, the liveness-cap clock of every launched stage that
// a seal has just made runnable.
func (s *scheduler) armCaps(now time.Duration) {
	for _, r := range s.runs {
		if r.state == stageLaunched && r.capFrom < 0 && s.depsSealed(r) {
			r.capFrom = now
		}
	}
}

// stragglers returns the workers to re-invoke at now, stage by stage, their
// attempt counters already bumped: their boundary publishes land in a fresh
// attempt namespace, so whichever attempt commits first wins.
func (s *scheduler) stragglers(now time.Duration) []backup {
	if !s.speculate.Enabled {
		return nil
	}
	var out []backup
	for _, r := range s.runs {
		if r.state != stageLaunched || !s.overdue(r, now) {
			continue
		}
		// Workers never launched (admission backlog) are not stragglers.
		for w := 0; w < r.launched; w++ {
			if _, won := r.winners[w]; won || r.attempts[w] >= s.speculate.MaxRetries {
				continue
			}
			r.attempts[w]++
			r.speculated++
			s.rep.Speculated++
			out = append(out, backup{r, w})
		}
	}
	return out
}

// overdue reports whether r's missing workers are due a backup at now: a
// quorum reported and the median-based deadline passed, or no response has
// arrived for maxStageWait since the stage became runnable (or since the last
// one). An expired cap window restarts at now: the new attempt gets a fresh one.
func (s *scheduler) overdue(r *stageRun, now time.Duration) bool {
	n := len(r.payloads)
	if len(r.responses) >= n {
		return false
	}
	if len(r.responses) >= max(int(speculateQuorum*float64(n)), 1) {
		median := r.responses[len(r.responses)/2] // responses stay sorted
		if now > r.launchedAt+time.Duration(float64(median)*speculateLatencyFactor) {
			return true
		}
	}
	if r.capFrom < 0 || s.maxStageWait <= 0 || now <= r.capFrom+s.maxStageWait {
		return false
	}
	r.capFrom = now
	return true
}
