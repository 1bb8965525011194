package exchange

import (
	"errors"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
)

// keyShapes is every name shape the codec renders — three object forms for
// each of the three round kinds — with the List prefix discovery uses for it.
var keyShapes = []struct {
	key        boundaryKey
	name, list string
}{
	{boundaryKey{"q/e1", 3, sendRound, combinedKey, 2, 1, 0, "0_10_25"}, "q/e1/s3/snd2-a1-off0_10_25", "q/e1/s3/snd"},
	{boundaryKey{"q/e1", 3, sendRound, fileKey, 2, 1, 7, ""}, "q/e1/s3/p7/a1-snd2", ""},
	{boundaryKey{"q/e1", 3, sendRound, commitKey, 2, 1, 0, ""}, "q/e1/s3/commit/snd2-a1", "q/e1/s3/commit/"},
	{boundaryKey{"q/e1", 3, groupRound, combinedKey, 2, 1, 0, "0_10_25"}, "q/e1/s3/r1snd2-a1-off0_10_25", "q/e1/s3/r1snd"},
	{boundaryKey{"q/e1", 3, groupRound, fileKey, 2, 1, 4, ""}, "q/e1/s3/g4/a1-snd2", ""},
	{boundaryKey{"q/e1", 3, groupRound, commitKey, 2, 1, 0, ""}, "q/e1/s3/r1commit/snd2-a1", "q/e1/s3/r1commit/"},
	{boundaryKey{"q/e1", 3, regroupRound, combinedKey, 4, 1, 0, "0_10_25"}, "q/e1/s3/rg4-a1-off0_10_25", "q/e1/s3/rg4-"},
	{boundaryKey{"q/e1", 3, regroupRound, fileKey, 4, 1, 7, ""}, "q/e1/s3/p7/a1-rg4", ""},
	{boundaryKey{"q/e1", 3, regroupRound, commitKey, 4, 1, 0, ""}, "q/e1/s3/rgcommit/g4-a1", "q/e1/s3/rgcommit/g4-a"},
}

// TestBoundaryKeyNames pins the stage-boundary names and List prefixes byte
// for byte (they are what PR 13 and before wrote), and that parsing one
// allocates nothing.
func TestBoundaryKeyNames(t *testing.T) {
	for _, c := range keyShapes {
		if got := c.key.String(); got != c.name {
			t.Errorf("%+v renders %q, want %q", c.key, got, c.name)
		}
		if got := c.key.render(false); c.list != "" && got != c.list {
			t.Errorf("%+v lists %q, want %q", c.key, got, c.list)
		}
		got, err := parseBoundaryKey(c.name)
		if err != nil || got != c.key {
			t.Errorf("parse(%q) = %+v, %v; want %+v", c.name, got, err, c.key)
		}
		if n := testing.AllocsPerRun(10, func() { parseBoundaryKey(c.name) }); n != 0 {
			t.Errorf("parsing %q allocates %v times", c.name, n)
		}
	}
	if lo, hi, err := slotRange("0_100_250_999", 3, 1); err != nil || lo != 100 || hi != 250 {
		t.Errorf("slotRange = [%d, %d), %v", lo, hi, err)
	}
	for _, bad := range []string{"0_100", "0_9_5_9", "0__5_9", ""} {
		if _, _, err := slotRange(bad, 3, 1); err == nil {
			t.Errorf("offsets %q accepted for 3 slots", bad)
		}
	}
}

// FuzzBoundaryKey: parsing arbitrary bytes returns a key or an errKey error
// and never panics, and parse is the exact inverse of String — on every key
// parse itself returns, and on keys built from the input with an arbitrary
// prefix. The seed corpus (testdata/fuzz/FuzzBoundaryKey) holds one name per
// shape and the malformed names the old wc-name parser was tested on.
func FuzzBoundaryKey(f *testing.F) {
	for _, c := range keyShapes {
		f.Add(c.name)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := parseBoundaryKey(s)
		if err != nil {
			if !errors.Is(err, errKey) {
				t.Fatalf("parse(%q): untyped error %v", s, err)
			}
		} else if back, err := parseBoundaryKey(k.String()); err != nil || back != k {
			t.Fatalf("parse(%q) = %+v, which renders %q and parses back as %+v, %v", s, k, k.String(), back, err)
		}
		n := len(s)
		k = boundaryKey{prefix: s, stage: n, kind: roundKind(n % 3), form: keyForm(n / 3 % 3), writer: 7 * n, attempt: n / 2}
		switch k.form {
		case fileKey:
			k.slot = 3 * n
		case combinedKey:
			k.offsets = joinOffsets([]int64{0, int64(n), int64(n) << 20})
		}
		if back, err := parseBoundaryKey(k.String()); err != nil || back != k {
			t.Fatalf("%+v renders %q, which parses back as %+v, %v", k, k.String(), back, err)
		}
	})
}

// TestDiscoverRejectsStrayWriter: an object that parses but names a writer
// outside the boundary must fail the collect. Counted as a sender — as it
// was — it let CollectStage return while a real sender was still missing and
// read the stray's rows in its place. Both discovery forms: a write-combined
// object, and a basic commit marker.
func TestDiscoverRejectsStrayWriter(t *testing.T) {
	const senders, parts = 4, 3
	for _, wc := range []bool{true, false} {
		svc := s3.New(s3.Config{})
		svc.MustCreateBucket("x")
		client := s3.NewClient(svc, simenv.NewImmediate())
		opts := Options{Variant: Variant{Levels: 1, WriteCombining: wc}, Buckets: []string{"x"}, Prefix: "q", Poll: time.Millisecond, MaxWait: 20 * time.Millisecond}
		b := Boundary{Stage: 1, Senders: senders, Partitions: parts}
		// Senders 0..2 committed; sender 3 has not. A stray "sender 7" with
		// a well-formed name (a copy of sender 0's object) sits beside them.
		for s := 0; s < senders-1; s++ {
			if err := PublishStage(client, opts, b, s, stageTestChunk(s*10, 10), []string{"k"}); err != nil {
				t.Fatal(err)
			}
		}
		entries, err := client.List("x", "q/s1/")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			k, err := parseBoundaryKey(e.Key)
			if err != nil {
				t.Fatal(err)
			}
			if k.writer == 0 && k.form != fileKey {
				data, _, err := client.Get("x", e.Key, 1)
				if err != nil {
					t.Fatal(err)
				}
				k.writer = 7
				if err := client.Put("x", k.String(), data); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := CollectStage(client, opts, b, 0); !errors.Is(err, errShape) {
			t.Errorf("wc=%v: collect with a stray writer 7 of %d returned %v, want a boundary shape error", wc, senders, err)
		}
		// Publishing as a writer outside the boundary is refused outright.
		if err := PublishStage(client, opts, b, senders, stageTestChunk(0, 10), []string{"k"}); !errors.Is(err, errShape) {
			t.Errorf("wc=%v: publish as sender %d of %d returned %v", wc, senders, senders, err)
		}
	}
}
