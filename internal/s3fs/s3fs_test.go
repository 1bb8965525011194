package s3fs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/obs"
)

func setup(t *testing.T, data []byte) *File {
	t.Helper()
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("b")
	env := simenv.NewImmediate()
	if err := svc.Put(env, "b", "k", data); err != nil {
		t.Fatal(err)
	}
	f, _, err := Open(s3.NewClient(svc, simenv.NewImmediate()), "b", "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOpenMissing(t *testing.T) {
	svc := s3.New(s3.Config{})
	svc.MustCreateBucket("b")
	if _, _, err := Open(s3.NewClient(svc, simenv.NewImmediate()), "b", "nope", 4); !errors.Is(err, s3.ErrNoSuchKey) {
		t.Errorf("opening a missing object: %v, want ErrNoSuchKey", err)
	}
}

// TestOpenIsOneRequest: an open is one billed read — the suffix range, whose
// reply carries the size — and hands back the tail it asked for, truncated to
// the object; the handle keeps none of it, so a read of the same bytes is a
// request of its own.
func TestOpenIsOneRequest(t *testing.T) {
	meter := pricing.NewCostMeter()
	svc := s3.New(s3.Config{Meter: meter})
	svc.MustCreateBucket("b")
	env := simenv.NewImmediate()
	if err := svc.Put(env, "b", "k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tail int64
		want string
	}{{4, "6789"}, {10, "0123456789"}, {64, "0123456789"}} {
		before := meter.Cost()
		f, tail, err := Open(s3.NewClient(svc, env), "b", "k", tc.tail)
		if err != nil {
			t.Fatal(err)
		}
		if string(tail) != tc.want || f.Size() != 10 {
			t.Errorf("Open(tail %d) = %q of %d bytes, want %q of 10", tc.tail, tail, f.Size(), tc.want)
		}
		want := obs.Cost{S3Get: 1, S3ReadBytes: int64(len(tc.want))}
		if got := meter.Cost().Sub(before); got != want {
			t.Errorf("Open(tail %d) billed %+v, want %+v", tc.tail, got, want)
		}
		if f.Requests() != 1 || f.BytesRead() != int64(len(tc.want)) {
			t.Errorf("Open(tail %d): handle counts %d requests, %d bytes", tc.tail, f.Requests(), f.BytesRead())
		}
		if got, err := f.ReadRange(6, 4); err != nil || string(got) != "6789" || f.Requests() != 2 {
			t.Errorf("read of the tail's bytes = %q, %v after %d requests, want a second request", got, err, f.Requests())
		}
	}
}

func TestAccessors(t *testing.T) {
	f := setup(t, []byte("hello"))
	if f.Size() != 5 || f.Bucket() != "b" || f.Key() != "k" {
		t.Errorf("accessors: %d %q %q", f.Size(), f.Bucket(), f.Key())
	}
}

func TestReadRange(t *testing.T) {
	f := setup(t, []byte("0123456789"))
	got, err := f.ReadRange(3, 4)
	if err != nil || string(got) != "3456" {
		t.Errorf("ReadRange = %q, %v", got, err)
	}
	// Truncated at the end.
	got, err = f.ReadRange(8, 10)
	if err != nil || string(got) != "89" {
		t.Errorf("tail ReadRange = %q, %v", got, err)
	}
	// Empty beyond the end.
	got, err = f.ReadRange(20, 5)
	if err != nil || got != nil {
		t.Errorf("past-end ReadRange = %q, %v", got, err)
	}
}

func TestNegativeOffset(t *testing.T) {
	f := setup(t, []byte("abc"))
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative offset accepted")
	}
}

// Property: ReaderAt semantics match bytes.Reader for any data/offset/len
// and any chunk size.
func TestPropertyMatchesBytesReader(t *testing.T) {
	check := func(data []byte, off16 uint16, n8, chunk8 uint8) bool {
		if len(data) == 0 {
			return true
		}
		f := setup(&testing.T{}, data)
		f.ChunkBytes = int64(chunk8%16) + 1
		ref := bytes.NewReader(data)
		off := int64(off16) % int64(len(data)+4)
		buf1 := make([]byte, int(n8%64)+1)
		buf2 := make([]byte, len(buf1))
		n1, err1 := f.ReadAt(buf1, off)
		n2, err2 := ref.ReadAt(buf2, off)
		if n1 != n2 {
			return false
		}
		if (err1 == io.EOF) != (err2 == io.EOF) {
			return false
		}
		return bytes.Equal(buf1[:n1], buf2[:n2])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
