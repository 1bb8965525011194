package dynamo

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
)

func TestPutGetDelete(t *testing.T) {
	s := New(Config{})
	env := simenv.NewImmediate()
	s.CreateTable("t")
	if err := s.Put(env, "t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(env, "t", "k")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("get = %q, %v", v, err)
	}
	if err := s.Delete(env, "t", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(env, "t", "k"); !errors.Is(err, ErrNoSuchItem) {
		t.Errorf("after delete: %v", err)
	}
}

func TestMissingTable(t *testing.T) {
	s := New(Config{})
	env := simenv.NewImmediate()
	if err := s.Put(env, "nope", "k", nil); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("put err = %v", err)
	}
	if _, err := s.Get(env, "nope", "k"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("get err = %v", err)
	}
	if _, err := s.Scan(env, "nope", ""); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("scan err = %v", err)
	}
}

func TestScanPrefixSorted(t *testing.T) {
	s := New(Config{})
	env := simenv.NewImmediate()
	s.CreateTable("t")
	for i := 3; i >= 0; i-- {
		s.Put(env, "t", fmt.Sprintf("job/%d", i), []byte{byte(i)})
	}
	s.Put(env, "t", "other", []byte("x"))
	items, err := s.Scan(env, "t", "job/")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("got %d items", len(items))
	}
	for i, it := range items {
		if it.Key != fmt.Sprintf("job/%d", i) {
			t.Errorf("item %d = %q", i, it.Key)
		}
	}
}

func TestValueIsolation(t *testing.T) {
	s := New(Config{})
	env := simenv.NewImmediate()
	s.CreateTable("t")
	v := []byte("orig")
	s.Put(env, "t", "k", v)
	v[0] = 'X'
	got, _ := s.Get(env, "t", "k")
	if string(got) != "orig" {
		t.Error("Put did not copy")
	}
	got[0] = 'Y'
	got2, _ := s.Get(env, "t", "k")
	if string(got2) != "orig" {
		t.Error("Get did not copy")
	}
}

func TestPricing(t *testing.T) {
	meter := pricing.NewCostMeter()
	s := New(Config{Meter: meter})
	env := simenv.NewImmediate()
	s.CreateTable("t")
	s.Put(env, "t", "a", []byte("1"))
	s.Put(env, "t", "b", []byte("2"))
	s.Get(env, "t", "a")
	s.Scan(env, "t", "") // 2 items → 2 read units
	if got := meter.Count(pricing.LabelDynamoWrite); got != 2 {
		t.Errorf("writes = %d", got)
	}
	if got := meter.Count(pricing.LabelDynamoRead); got != 3 {
		t.Errorf("reads = %d, want 3 (1 get + 2 scan units)", got)
	}
}

// TestItemSizeLimit: an item of exactly MaxItemBytes — key and value — is
// stored; one byte more is refused by Put and PutIf alike with
// ErrItemTooLarge, unbilled, and the stored item is left as it was.
func TestItemSizeLimit(t *testing.T) {
	meter := pricing.NewCostMeter()
	s := New(Config{Meter: meter})
	env := simenv.NewImmediate()
	s.CreateTable("t")
	const key = "q1/e1/s2"
	fit := bytes.Repeat([]byte{1}, MaxItemBytes-len(key))
	if err := s.Put(env, "t", key, fit); err != nil {
		t.Fatalf("a %d-byte item: %v", MaxItemBytes, err)
	}
	over := append(fit, 2)
	if err := s.Put(env, "t", key, over); !errors.Is(err, ErrItemTooLarge) {
		t.Errorf("Put of a %d-byte item returned %v, want ErrItemTooLarge", MaxItemBytes+1, err)
	}
	if err := s.PutIf(env, "t", key, over, fit); !errors.Is(err, ErrItemTooLarge) {
		t.Errorf("PutIf of a %d-byte item returned %v, want ErrItemTooLarge", MaxItemBytes+1, err)
	}
	if got, err := s.Get(env, "t", key); err != nil || !bytes.Equal(got, fit) {
		t.Errorf("the refused writes changed the item: %d bytes, %v", len(got), err)
	}
	if got := meter.Count(pricing.LabelDynamoWrite); got != 1 {
		t.Errorf("writes billed = %d, want 1: a refused item is not billed", got)
	}
}

// TestPutIfConditionalSemantics: nil expect means "must not exist"; non-nil
// expect must match the stored bytes; either way the loser sees
// ErrConditionFailed and the item keeps the winner's value.
func TestPutIfConditionalSemantics(t *testing.T) {
	s := New(Config{})
	env := simenv.NewImmediate()
	s.CreateTable("t")

	if err := s.PutIf(env, "t", "epoch", []byte("1"), nil); err != nil {
		t.Fatalf("create-if-absent failed: %v", err)
	}
	if err := s.PutIf(env, "t", "epoch", []byte("1"), nil); !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("second create-if-absent: err = %v, want ErrConditionFailed", err)
	}
	// CAS from the observed value succeeds exactly once.
	if err := s.PutIf(env, "t", "epoch", []byte("2"), []byte("1")); err != nil {
		t.Fatalf("CAS 1->2 failed: %v", err)
	}
	if err := s.PutIf(env, "t", "epoch", []byte("2"), []byte("1")); !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("stale CAS: err = %v, want ErrConditionFailed", err)
	}
	got, err := s.Get(env, "t", "epoch")
	if err != nil || string(got) != "2" {
		t.Fatalf("item = %q (%v), want 2", got, err)
	}
	if err := s.PutIf(env, "nope", "k", nil, nil); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table: err = %v", err)
	}
}

// TestPutIfRacingIncrements: two racing CAS loops produce distinct,
// consecutive epochs — the uniqueness property the driver's fence rests on.
func TestPutIfRacingIncrements(t *testing.T) {
	s := New(Config{})
	s.CreateTable("t")
	acquire := func(env simenv.Env) int {
		for {
			cur, err := s.Get(env, "t", "epoch")
			if err != nil && !errors.Is(err, ErrNoSuchItem) {
				t.Error(err)
				return -1
			}
			next := 1
			if err == nil {
				n, _ := strconv.Atoi(string(cur))
				next = n + 1
			}
			perr := s.PutIf(env, "t", "epoch", []byte(strconv.Itoa(next)), cur)
			if perr == nil {
				return next
			}
			if !errors.Is(perr, ErrConditionFailed) {
				t.Error(perr)
				return -1
			}
		}
	}
	var wg sync.WaitGroup
	got := make([]int, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = acquire(simenv.NewImmediate())
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, e := range got {
		if e < 1 || e > len(got) || seen[e] {
			t.Fatalf("epochs not unique/consecutive: %v", got)
		}
		seen[e] = true
	}
}
