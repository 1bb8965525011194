package sqlfe

import (
	"bytes"
	"testing"

	"lambada/internal/engine"
	"lambada/internal/tpch"
)

// FuzzParse: SQL text is an untrusted edge, so Parse returns a plan or an
// error and never panics; and a plan it returns survives the trip to a worker
// — MarshalPlan → UnmarshalPlan → MarshalPlan is a fixed point, so the
// fragment a worker decodes is the plan the driver optimized.
func FuzzParse(f *testing.F) {
	for _, sql := range []string{
		tpch.Q1SQL, tpch.Q6SQL, tpch.JoinSQL, tpch.Q12SQL,
		"SELECT l_orderkey, l_quantity FROM lineitem ORDER BY l_quantity DESC, l_orderkey LIMIT 5",
		"SELECT DATE '1994-01-01' AS e, l_orderkey FROM lineitem",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		plan, err := Parse(sql)
		if err != nil {
			return
		}
		first, err := engine.MarshalPlan(plan)
		if err != nil {
			t.Fatalf("parsed plan does not marshal: %v\n%s", err, engine.Explain(plan))
		}
		back, err := engine.UnmarshalPlan(first)
		if err != nil {
			t.Fatalf("marshalled plan %s does not unmarshal: %v", first, err)
		}
		second, err := engine.MarshalPlan(back)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("plan changed on the way to a worker (%v):\n%s\n%s", err, first, second)
		}
	})
}
