package driver

import (
	"encoding/json"
	"slices"
	"time"

	"lambada/internal/exchange"
	"lambada/internal/obs"
	"lambada/internal/stageplan"
	"lambada/internal/worker"
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
	st     *stageplan.Stage
	task   worker.Payload // worker w's attempt-0 payload is task.ForWorker(shares[w])
	shares []worker.Share
	// awaited: some other run depends on this one, so its seal writes a
	// DynamoDB ready marker (rule 2 of runStages).
	awaited bool
	state   stageState
	// pending are the launch units not yet invoked, built on first launch;
	// launched counts the workers the invoked ones spawn, and invokedAt holds
	// each worker's Invoke instant (negative: not invoked yet). A launch pass
	// invokes as many units as admission grants and resumes on later passes.
	pending   []launchUnit
	launched  int
	invokedAt []time.Duration

	// launchedAt is the instant of the stage's first Invoke, sealedAt the
	// instant its seal was consumed, and firstWin and lastWin the instants its
	// first and its last winner sent their seal messages: sealedAt − lastWin
	// is how long the driver took to consume the seal that completed it, and
	// firstWin is what its consumers' launch waits for (launchable).
	launchedAt time.Duration
	sealedAt   time.Duration
	firstWin   time.Duration
	lastWin    time.Duration
	// winners records, per worker, the attempt whose seal arrived first.
	// Later seals of the same worker — the losing half of a backup pair —
	// are ignored; their boundary files are deleted after the query. chunks
	// holds the winners' result chunks by worker (lpq blobs; empty from a
	// stage that publishes a boundary instead), commits the offsets their
	// publishes reported — what the stage's manifest seals beside winners.
	winners map[int]int
	chunks  [][]byte
	commits [][]int64
	// attempts counts the re-invocations issued per worker — failure
	// relaunches and speculation backups alike; attempts[w] is also the
	// attempt number of the latest invocation of w.
	attempts map[int]int
	// responses holds the winners' latencies, each measured from its own
	// worker's Invoke instant, kept SORTED by a binary-search insert
	// (message): the median read in overdue is O(1) instead of a re-sort per
	// event-loop pass — at 4k workers the loop asks once per message batch
	// per stage, and a copy+sort made each ask O(n²).
	responses []time.Duration
	// capFrom is where the no-progress liveness window starts; negative
	// until the stage is runnable. Once armed, scheduler.maxStageWait of
	// virtual time without ANY response (the window restarts on every one),
	// and since a worker's own Invoke, re-invokes that missing worker even
	// though the quorum/median policy never armed — covering both the
	// all-stragglers case (quorum arithmetic needs at least one response)
	// and a sub-quorum stall. A fleet making progress keeps deferring the
	// cap, so on-pace workers are never mass-re-invoked.
	capFrom    time.Duration
	speculated int
	// span is the stage's trace span (0 when tracing is off): opened at
	// payload build, re-timed to the launch instant, ended at the seal.
	span obs.SpanID
}

const (
	// speculateQuorum is the fraction of a stage's workers that must report
	// before the median rule arms.
	speculateQuorum = 0.75
	// speculateLatencyFactor multiplies the median response time to form a
	// worker's straggler deadline.
	speculateLatencyFactor = 3
	// speculateRetries bounds the re-invocations of a worker, failure
	// relaunches and speculation backups alike.
	speculateRetries = 1
)

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
	speculate bool // Config.Speculate
	// maxStageWait is StageConfig.MaxStageWait, the liveness cap of every
	// stage (0: none); waves is the Config.testWaveLaunch seam.
	maxStageWait time.Duration
	waves        bool

	runs    []*stageRun // in launch order: producers precede consumers
	byID    map[int]*stageRun
	nSealed int
	// rep accumulates what the transitions count: Workers, WorkerProcessing,
	// ColdWorkers, Speculated, FailureSeals, WorkerRetries — and Invocation,
	// which the launch passes add up around their Invokes.
	rep                           Report
	zombieDiscards, loserDiscards int
}

// add appends the run of stage st — after the runs of the stages it depends
// on — and marks those awaited.
func (s *scheduler) add(st *stageplan.Stage, task worker.Payload, shares []worker.Share) *stageRun {
	r := &stageRun{st: st, task: task, shares: shares, invokedAt: make([]time.Duration, len(shares)), winners: map[int]int{},
		chunks: make([][]byte, len(shares)), commits: make([][]int64, len(shares)), attempts: map[int]int{}, capFrom: -1}
	for w := range r.invokedAt {
		r.invokedAt[w] = -1
	}
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
			n += len(r.shares) - len(r.winners)
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
// but only once every producer it depends on has its WHOLE fleet launched and
// has reported at least one winner (or sealed, which implies one). The first
// rule is liveness: producers then always make progress with the tokens they
// hold, so token-holding consumers parked on a ready barrier are never
// waiting on a producer that admission starved — the inductive argument
// bottoms out at scan stages, which depend on nothing. The second is price: a
// fleet launched at the requester pool's rate is up long before its producers
// can seal, and every worker parked on the ready barrier is billed for the
// wait; a producer's first report says its workers are running, so what is
// left of its wall overlaps the consumers' cold starts. Under waves: once
// they sealed.
func (s *scheduler) launchable(r *stageRun) bool {
	if r.launched == len(r.shares) {
		return false
	}
	if s.waves {
		return s.depsSealed(r)
	}
	for _, dep := range r.st.DependsOn {
		if p := s.byID[dep]; p != nil && (p.launched < len(p.shares) || len(p.winners) == 0) {
			return false
		}
	}
	return true
}

// launched records one launch unit of r whose Invoke is issued at at: workers
// are the unit's worker and the children it invokes in turn. A launch pass
// calls it per unit, as the Invoke goes out and before its round trip, so a
// seal of these workers can never reach the event loop ahead of it — even
// while the rest of the fleet is still being invoked. It reports whether the
// unit launched the stage: the first Invoke, whose instant is launchedAt. The
// all-stragglers liveness cap starts ticking once the stage is runnable: at
// launch for stages whose producers already sealed (scan stages, wave-gated
// launches), on the last producer's seal otherwise (armCaps) — a pipelined
// consumer idling on the ready barrier is not straggling.
func (s *scheduler) launched(r *stageRun, workers []int, at time.Duration) bool {
	r.launched += len(workers)
	for _, w := range workers {
		r.invokedAt[w] = at
	}
	if r.state != stagePending || r.launched == 0 {
		return false
	}
	r.state = stageLaunched
	r.launchedAt = at
	if s.depsSealed(r) {
		r.capFrom = at
	}
	s.rep.Workers += len(r.shares)
	return true
}

// receipt decodes one result-queue body, sent at sent, and consumes it at
// instant now (message). A body that is not a result message's JSON was
// posted by no worker of this run — a worker posts its worker.Result encoded — so
// it is discarded and counted as a zombie's stray is, and never fails the
// query; a worker whose seal never arrives is the liveness clock's to
// relaunch.
func (s *scheduler) receipt(now, sent time.Duration, body []byte) (worker.Result, *stageRun, outcome, error) {
	var rm worker.Result
	if json.Unmarshal(body, &rm) != nil {
		s.zombieDiscards++
		return rm, nil, nothing, nil
	}
	r, out, err := s.message(now, sent, &rm)
	return rm, r, out, err
}

// message consumes one result message, sent at sent, at instant now. It
// returns the run the message counted for (nil: discarded) and what the
// driver must do about it; the error is the query's terminal StageFailure.
func (s *scheduler) message(now, sent time.Duration, rm *worker.Result) (*stageRun, outcome, error) {
	if rm.QueryID != s.queryID || rm.Epoch != s.epoch {
		// Leftover of an earlier aborted query — including a zombie worker of
		// an aborted identically-numbered run posting its seal on this run's
		// queue: its older epoch fences it out.
		s.zombieDiscards++
		return nil, nothing, nil
	}
	r := s.byID[rm.Stage]
	if r == nil || r.state != stageLaunched {
		s.loserDiscards++ // unknown stage, or a loser sealing after the stage did
		return nil, nothing, nil
	}
	w := rm.WorkerID
	if w < 0 || w >= len(r.shares) {
		// A seal from a worker the stage does not have is a stray, whoever
		// wrote it: counted as a winner it would seal the stage one real
		// worker early, and relaunching it has no payload.
		s.zombieDiscards++
		return nil, nothing, nil
	}
	if _, dup := r.winners[w]; dup || (rm.Err != "" && rm.Attempt < r.attempts[w]) {
		// The losing half of a backup pair — its files are deleted later — or the
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
		if rm.Retryable && r.attempts[w] < speculateRetries {
			r.attempts[w]++
			s.rep.FailureSeals++
			return r, relaunch, nil
		}
		return r, nothing, &StageFailure{QueryID: s.queryID, Stage: rm.Stage, Worker: w, Attempt: rm.Attempt, Retryable: rm.Retryable, Msg: rm.Err}
	}
	if len(r.winners) == 0 {
		r.firstWin = sent
	}
	r.winners[w], r.chunks[w], r.commits[w] = rm.Attempt, rm.Chunk, rm.Offsets
	if rm.Cold {
		s.rep.ColdWorkers++
	}
	s.rep.WorkerProcessing = append(s.rep.WorkerProcessing, time.Duration(rm.ProcessingNs))
	resp := now - r.invokedAt[w]
	i, _ := slices.BinarySearch(r.responses, resp)
	r.responses = slices.Insert(r.responses, i, resp)
	if r.capFrom >= 0 {
		r.capFrom = now // progress defers the liveness cap
	}
	if len(r.winners) < len(r.shares) {
		return r, nothing, nil
	}
	return r, sealed, nil
}

// marked seals r at now: its last winner reported — its seal message was sent
// at lastWin — and, if anyone awaits it, its ready marker is written.
func (s *scheduler) marked(r *stageRun, lastWin, now time.Duration) {
	r.state = stageSealed
	r.sealedAt, r.lastWin = now, lastWin
	s.nSealed++
}

// manifest is the value of r's ready marker once every worker reported: for
// each worker in order, the attempt recorded as its winner and the offsets
// that attempt committed (exchange.AppendCommit). The stage's consumers read
// their boundary's objects from it, so the first seal of a worker is the one
// they read, whichever attempt committed first or lowest.
func (r *stageRun) manifest() []byte {
	n := 0
	for _, c := range r.commits {
		n += 2 + 2*len(c)
	}
	b := make([]byte, 0, n)
	for w, c := range r.commits {
		b = exchange.AppendCommit(b, r.winners[w], c)
	}
	return b
}

// written names every object the query's writers may have published: for
// each worker invoked (one never invoked wrote nothing), each attempt
// 0 … attempts[w] of its task — by the names the task itself would delete
// (worker.Payload.Written).
func (s *scheduler) written() ([]exchange.Object, error) {
	var objs []exchange.Object
	for _, r := range s.runs {
		for w, at := range r.invokedAt {
			for p := r.task.ForWorker(r.shares[w]); at >= 0 && p.Attempt <= r.attempts[w]; p.Attempt++ {
				names, err := p.Written()
				if err != nil {
					return nil, err
				}
				objs = append(objs, names...)
			}
		}
	}
	return objs, nil
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
// attempt namespace, so whichever attempt commits first wins. A stage whose
// liveness cap fired restarts its window at now: the new attempts get a
// fresh one.
func (s *scheduler) stragglers(now time.Duration) []backup {
	if !s.speculate {
		return nil
	}
	var out []backup
	for _, r := range s.runs {
		if r.state != stageLaunched {
			continue
		}
		capped := false
		// Workers not invoked yet — an admission backlog, or a tree unit
		// later in the pass than the units already out — are not stragglers.
		for w, at := range r.invokedAt {
			if _, won := r.winners[w]; won || at < 0 || r.attempts[w] >= speculateRetries {
				continue
			}
			due, byCap := s.overdue(r, w, now)
			if !due {
				continue
			}
			capped = capped || byCap
			r.attempts[w]++
			r.speculated++
			s.rep.Speculated++
			out = append(out, backup{r, w})
		}
		if capped {
			r.capFrom = now
		}
	}
	return out
}

// overdue reports whether the missing worker w of r is due a backup at now,
// and whether the liveness cap is what made it due. Both clocks run from w's
// own Invoke, so a worker the admission cap held back is not late the moment
// it launches: a quorum reported and w's median-based deadline passed, or no
// response has arrived for maxStageWait since the stage became runnable, its
// last response or w's Invoke, whichever came last.
func (s *scheduler) overdue(r *stageRun, w int, now time.Duration) (due, byCap bool) {
	at := r.invokedAt[w]
	if n := len(r.responses); n >= max(int(speculateQuorum*float64(len(r.shares))), 1) {
		median := r.responses[n/2] // responses stay sorted
		if now > at+time.Duration(float64(median)*speculateLatencyFactor) {
			return true, false
		}
	}
	byCap = r.capFrom >= 0 && s.maxStageWait > 0 && now > max(r.capFrom, at)+s.maxStageWait
	return byCap, byCap
}
