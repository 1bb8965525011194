// Package s3fs provides a random-access file interface over simulated S3,
// the layer between the Parquet library and the AWS SDK in Figure 8. Every
// ReadAt is translated into one or more ranged GET requests of a
// configurable chunk size — the request-count/bandwidth trade-off that
// Figure 7 quantifies ("the size of each request ... is inversely
// proportional to the number of requests, each of which has a fixed cost").
package s3fs

import (
	"fmt"
	"io"
	"sync/atomic"

	"lambada/internal/awssim/s3"
)

// DefaultChunkBytes is the default per-request range size (16 MiB — the
// size at which a single connection approaches peak throughput in Fig. 7).
const DefaultChunkBytes = 16 << 20

// File is a random-access view of one S3 object.
type File struct {
	client *s3.Client
	bucket string
	key    string
	size   int64

	// ChunkBytes caps the byte range of a single GET request.
	ChunkBytes int64
	// Conns is the number of concurrent connections modeled per read.
	Conns int

	// requests is atomic: one handle serves concurrent readers
	// (double-buffered row groups, parallel files).
	requests atomic.Int64
	// bytes counts the billed bytes fetched through this handle.
	bytes atomic.Int64
}

// Open is the one request opening an object costs: a suffix read of its last
// tail bytes, which the reply's size comes with. It returns the handle and
// those bytes — where a columnar file keeps its footer — for the caller to
// parse and drop; nothing of them stays with the handle, so every later read
// is billed as if the open had fetched nothing.
func Open(client *s3.Client, bucket, key string, tail int64) (*File, []byte, error) {
	data, got, size, err := client.GetSuffix(bucket, key, tail, 1)
	if err != nil {
		return nil, nil, err
	}
	f := NewFile(client, bucket, key, size)
	f.requests.Add(1)
	f.bytes.Add(got)
	return f, data, nil
}

// NewFile returns a handle with a known size (no request issued).
func NewFile(client *s3.Client, bucket, key string, size int64) *File {
	return &File{
		client:     client,
		bucket:     bucket,
		key:        key,
		size:       size,
		ChunkBytes: DefaultChunkBytes,
		Conns:      1,
	}
}

// Size returns the object size.
func (f *File) Size() int64 { return f.size }

// Requests returns how many S3 requests this handle has issued.
func (f *File) Requests() int64 { return f.requests.Load() }

// BytesRead returns how many billed bytes this handle has fetched.
func (f *File) BytesRead() int64 { return f.bytes.Load() }

// Bucket returns the bucket name.
func (f *File) Bucket() string { return f.bucket }

// Key returns the object key.
func (f *File) Key() string { return f.key }

// ReadAt implements io.ReaderAt: it fills p from offset off using ranged
// GETs of at most ChunkBytes each. Reads past the end return io.EOF with
// the partial count, per the io.ReaderAt contract.
func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.readAt(f.client, p, off) }

// readAt is the read core: ReadAt with its requests issued through via — the
// handle's client, or a lane of that client's request window (ReadRanges) —
// and counted on the handle either way.
func (f *File) readAt(via *s3.Client, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("s3fs: negative offset")
	}
	if off >= f.size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > f.size {
		want = f.size - off
	}
	chunk := f.ChunkBytes
	if chunk <= 0 {
		chunk = DefaultChunkBytes
	}
	var n int64
	for n < want {
		reqLen := chunk
		if n+reqLen > want {
			reqLen = want - n
		}
		data, got, err := via.GetRange(f.bucket, f.key, off+n, reqLen, f.Conns)
		f.requests.Add(1)
		if err != nil {
			return int(n), err
		}
		f.bytes.Add(got)
		if data == nil {
			return int(n), fmt.Errorf("s3fs: synthetic object %s/%s has no bytes", f.bucket, f.key)
		}
		copy(p[n:n+got], data)
		n += got
		if got < reqLen {
			break
		}
	}
	if n < int64(len(p)) {
		return int(n), io.EOF
	}
	return int(n), nil
}

// ReadRange fetches [off, off+length) as a fresh buffer.
func (f *File) ReadRange(off, length int64) ([]byte, error) {
	return f.readRange(f.client, off, length)
}

// readRange is ReadRange over readAt(via, …).
func (f *File) readRange(via *s3.Client, off, length int64) ([]byte, error) {
	if off+length > f.size {
		length = f.size - off
	}
	if length <= 0 {
		return nil, nil
	}
	buf := make([]byte, length)
	n, err := f.readAt(via, buf, off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}
