package scan

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// lat is the constant first-byte latency of these tests' service.
const lat = 40 * time.Millisecond

// uploadTables writes tables × files small lpq objects into a service whose
// GETs take exactly lat, and returns the refs per table and the meter.
func uploadTables(t *testing.T, tables, files int) ([][]FileRef, *s3.Service, *pricing.CostMeter) {
	t.Helper()
	meter := pricing.NewCostMeter()
	svc := s3.New(s3.Config{Meter: meter, GetLatency: netmodel.Constant(lat)})
	svc.MustCreateBucket("data")
	raw, err := lpq.WriteFile(tpch.Schema(), lpq.WriterOptions{}, tpch.Gen{SF: 0.0002, Seed: 5}.Generate())
	if err != nil {
		t.Fatal(err)
	}
	env := simenv.NewImmediate()
	refs := make([][]FileRef, tables)
	for i := range refs {
		for j := 0; j < files; j++ {
			ref := FileRef{Bucket: "data", Key: fmt.Sprintf("t%d/part-%03d.lpq", i, j)}
			if err := svc.Put(env, ref.Bucket, ref.Key, raw); err != nil {
				t.Fatal(err)
			}
			refs[i] = append(refs[i], ref)
		}
	}
	return refs, svc, meter
}

// len returns how many files the table knows.
func (t *Footers) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.known)
}

// onKernel runs the given processes on a fresh DES kernel, all started at
// instant zero, and returns the virtual time at which the last one finished.
func onKernel(t *testing.T, procs ...func(p *simclock.Proc)) time.Duration {
	t.Helper()
	k := simclock.New()
	for i, fn := range procs {
		k.Go(fmt.Sprintf("proc%d", i), fn)
	}
	end := k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	return end
}

// TestOpenAllIsOneWindow: the files of all the tables a plan scans — one
// source per table, one client — open in ⌈T·F/16⌉ first-byte latencies with
// exactly T·F requests, and everything a planner then asks of the sources
// costs neither time nor a request. Serially the same opens took 2·T·F
// latencies.
func TestOpenAllIsOneWindow(t *testing.T) {
	for _, tc := range []struct{ tables, files int }{{1, 1}, {2, 3}, {2, 8}, {3, 11}} {
		refs, svc, meter := uploadTables(t, tc.tables, tc.files)
		n := tc.tables * tc.files
		before := meter.Count(pricing.LabelS3Read)
		end := onKernel(t, func(p *simclock.Proc) {
			client := s3.NewClient(svc, p)
			srcs := make([]*Source, tc.tables)
			for i := range srcs {
				srcs[i] = New(client, Config{}, refs[i]...)
			}
			if err := OpenAll(srcs...); err != nil {
				t.Error(err)
				return
			}
			opened := p.Now()
			for _, src := range srcs {
				if _, err := src.Schema(); err != nil {
					t.Error(err)
				}
				rows, err := src.TotalRows()
				if err != nil || rows == 0 {
					t.Errorf("TotalRows = %d, %v", rows, err)
				}
				if st := src.Stats(); st.BilledGets != int64(tc.files) {
					t.Errorf("source billed %d GETs for %d opens", st.BilledGets, tc.files)
				}
			}
			if p.Now() != opened {
				t.Errorf("statistics of open files took %v", p.Now()-opened)
			}
		})
		if want := time.Duration((n+15)/16) * lat; end != want {
			t.Errorf("%d×%d files opened in %v, want %v", tc.tables, tc.files, end, want)
		}
		if got := meter.Count(pricing.LabelS3Read) - before; got != int64(n) {
			t.Errorf("%d×%d files opened with %d requests, want %d", tc.tables, tc.files, got, n)
		}
	}
}

// TestOpenAllStopsAtMissingFile: a window over a missing object fails with
// the service's error, and a file opened before it stays open.
func TestOpenAllStopsAtMissingFile(t *testing.T) {
	refs, svc, _ := uploadTables(t, 1, 2)
	files := append(refs[0][:1:1], FileRef{Bucket: "data", Key: "nope.lpq"}, refs[0][1])
	src := New(newClient(svc), Config{}, files...)
	if _, err := src.TotalRows(); err == nil {
		t.Fatal("TotalRows over a missing file succeeded")
	}
	if _, err := src.Schema(); err != nil {
		t.Errorf("first file after a failed window: %v", err)
	}
}

// TestFootersOpenOncePerSession: sources that share a footer table open a
// file once between them. The second source pays no request and no time, for
// statistics or for the handle it reads data through — which is its own,
// bound to its own client — and scans the same rows. A source without the
// table opens for itself, as a worker does.
func TestFootersOpenOncePerSession(t *testing.T) {
	refs, svc, meter := uploadTables(t, 1, 3)
	shared := NewFooters()
	reads := func() int64 { return meter.Count(pricing.LabelS3Read) }
	rows := func(src *Source) int {
		n := 0
		for _, c := range collectScan(t, src, []string{"l_orderkey"}, nil) {
			n += c.NumRows()
		}
		return n
	}

	first := New(newClient(svc), Config{}, refs[0]...)
	first.Footers = shared
	if _, err := first.TotalRows(); err != nil {
		t.Fatal(err)
	}
	if got := reads(); got != 3 || shared.len() != 3 {
		t.Fatalf("first source: %d reads, table knows %d files; want 3 and 3", got, shared.len())
	}
	want := rows(first)
	dataReads := reads() - 3

	before := reads()
	second := New(newClient(svc), Config{}, refs[0]...)
	second.Footers = shared
	total, err := second.TotalRows()
	if err != nil || int(total) != want {
		t.Fatalf("second source: TotalRows = %d, %v; want %d", total, err, want)
	}
	if got := reads() - before; got != 0 {
		t.Errorf("second source read %d times for footers the session holds", got)
	}
	if got := rows(second); got != want {
		t.Errorf("second source scanned %d rows, first %d", got, want)
	}
	if got := reads() - before; got != dataReads {
		t.Errorf("second source's scan read %d times, the first one's %d", got, dataReads)
	}
	if st := second.Stats(); st.BilledGets != dataReads {
		t.Errorf("second source counts %d billed GETs, want its %d data reads", st.BilledGets, dataReads)
	}

	before = reads()
	worker := New(newClient(svc), Config{}, refs[0]...)
	if _, err := worker.TotalRows(); err != nil {
		t.Fatal(err)
	}
	if got := reads() - before; got != 3 {
		t.Errorf("a source without the table read %d times, want its own 3 opens", got)
	}

	shared.Drop()
	before = reads()
	third := New(newClient(svc), Config{}, refs[0]...)
	third.Footers = shared
	if _, err := third.TotalRows(); err != nil {
		t.Fatal(err)
	}
	if got := reads() - before; got != 3 || shared.len() != 3 {
		t.Errorf("after Drop: %d reads, table knows %d files; want 3 and 3", got, shared.len())
	}
}

// TestFootersNeverWaitAndNeverStoreStale runs the table's two hazards on the
// DES kernel, where a process that blocks on a Go lock held by a parked one
// stalls the simulation. Two processes that miss at the same instant both
// read — neither waits for the other — and store the same entry. And an open
// whose request was issued before a Drop and answered after it stores
// nothing: the object may have been overwritten in between.
func TestFootersNeverWaitAndNeverStoreStale(t *testing.T) {
	refs, svc, meter := uploadTables(t, 1, 1)
	shared := NewFooters()
	open := func(p *simclock.Proc) {
		src := New(s3.NewClient(svc, p), Config{}, refs[0]...)
		src.Footers = shared
		if _, err := src.Schema(); err != nil {
			t.Error(err)
		}
	}
	before := meter.Count(pricing.LabelS3Read)
	if end := onKernel(t, open, open); end != lat {
		t.Errorf("two opens that missed together finished at %v, want %v: one waited for the other", end, lat)
	}
	if got := meter.Count(pricing.LabelS3Read) - before; got != 2 || shared.len() != 1 {
		t.Errorf("two opens that missed together: %d reads, table knows %d files; want 2 and 1", got, shared.len())
	}

	shared.Drop()
	onKernel(t, open, func(p *simclock.Proc) {
		p.Sleep(lat / 2)
		shared.Drop()
	})
	if n := shared.len(); n != 0 {
		t.Errorf("an open that straddled a Drop left %d entries behind", n)
	}
	onKernel(t, open)
	if n := shared.len(); n != 1 {
		t.Errorf("an open after the Drop stored %d entries, want 1", n)
	}
}

// TestFootersConcurrentSources: the goroutine face of the same table — the
// queries of a session behind the HTTP service are goroutines. Sources that
// open, scan and share while another goroutine keeps dropping the table all
// read the same rows; run under the race detector by make race-staged.
func TestFootersConcurrentSources(t *testing.T) {
	svc := s3.New(s3.Config{})
	refs, data := uploadLineitem(t, svc, 0.001, 4, lpq.None)
	shared := NewFooters()
	stop := make(chan struct{})
	dropped := make(chan struct{})
	go func() {
		defer close(dropped)
		for {
			select {
			case <-stop:
				return
			default:
				shared.Drop()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				src := New(newClient(svc), DefaultConfig(), refs...)
				src.Footers = shared
				total, err := src.TotalRows()
				if err != nil || int(total) != data.NumRows() {
					t.Errorf("TotalRows = %d, %v; want %d", total, err, data.NumRows())
				}
				rows := 0
				err = src.Scan([]string{"l_orderkey"}, nil, func(c *columnar.Chunk) error {
					rows += c.NumRows()
					return nil
				})
				if err != nil || rows != data.NumRows() {
					t.Errorf("scanned %d rows, %v; want %d", rows, err, data.NumRows())
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-dropped
}
