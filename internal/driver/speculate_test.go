package driver

import (
	"lambada/internal/columnar"
	"math"
	"testing"
	"time"

	"lambada/internal/simclock"
)

// q6AllYearsSQL is Q6 with its year widened to every ship date, so that no
// file is pruned and the fleet is one worker per file.
const q6AllYearsSQL = `
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1992-01-01' AND l_shipdate < DATE '1999-01-01'
  AND l_discount BETWEEN 0.0499999 AND 0.0700001 AND l_quantity < 24`

// q6AllYearsRevenue is its single-node answer over the fixture's data.
func q6AllYearsRevenue(t *testing.T) float64 {
	t.Helper()
	return singleNode(t, q6AllYearsSQL, tpchData(41).catalog()).Column("revenue").Float64s[0]
}

// runWithStraggler runs that query on the DES deployment with worker 2
// stalled for stall and the given speculation policy; it returns the query
// latency, the backup-invocation count and the revenue.
func runWithStraggler(t *testing.T, stall time.Duration, spec SpeculateConfig) (time.Duration, int, float64) {
	t.Helper()
	cfg := desConfig()
	cfg.MaxWait = 5 * time.Minute
	cfg.Speculate = spec
	cfg.testWorkerDelay = func(stage, workerID, attempt int) time.Duration {
		// A degraded container stalls worker 2's first attempt; the backup
		// (attempt 1) lands on a healthy container.
		if workerID == 2 && attempt == 0 {
			return stall
		}
		return 0
	}
	var out *columnar.Chunk
	var rep *Report
	_, err := onDES(simulated(77), cfg, layout{Data: 41, LI: 6, Opts: stdLayout.Opts}, func(p *simclock.Proc, d *Session, tables TableFiles) (err error) {
		out, rep, err = d.RunSQL(p, q6AllYearsSQL, "lineitem", tables["lineitem"])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Duration, rep.Speculated, out.Column("revenue").Float64s[0]
}

func TestSpeculationCutsStragglerTail(t *testing.T) {
	const stall = 60 * time.Second
	want := q6AllYearsRevenue(t)

	// Without speculation the query waits out the full stall.
	noSpec, n0, rev0 := runWithStraggler(t, stall, SpeculateConfig{})
	if n0 != 0 {
		t.Errorf("speculation disabled but %d backups issued", n0)
	}
	if noSpec < stall {
		t.Errorf("un-speculated latency %v below the stall %v", noSpec, stall)
	}
	if math.Abs(rev0-want) > 1e-6*want {
		t.Errorf("revenue = %v, want %v", rev0, want)
	}

	// With backup requests the driver re-invokes the straggler's payload
	// and finishes as soon as the backup answers.
	withSpec, n1, rev1 := runWithStraggler(t, stall, DefaultSpeculateConfig())
	if n1 == 0 {
		t.Fatal("no backup invocations issued for the straggler")
	}
	if withSpec >= noSpec/2 {
		t.Errorf("speculated latency %v not well below unspeculated %v", withSpec, noSpec)
	}
	if math.Abs(rev1-want) > 1e-6*want {
		t.Errorf("speculated revenue = %v, want %v (duplicates must not double-count)", rev1, want)
	}
}

func TestSpeculationIdleOnHealthyFleet(t *testing.T) {
	// No stragglers: speculation must not fire and the answer is intact.
	dur, n, rev := runWithStraggler(t, 0, DefaultSpeculateConfig())
	if n != 0 {
		t.Errorf("healthy fleet triggered %d backups", n)
	}
	want := q6AllYearsRevenue(t)
	if math.Abs(rev-want) > 1e-6*want {
		t.Errorf("revenue = %v, want %v", rev, want)
	}
	if dur > 30*time.Second {
		t.Errorf("healthy query took %v", dur)
	}
}
