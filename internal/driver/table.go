package driver

import (
	"fmt"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/scan"
)

// UploadTable writes a relation into S3 as nfiles lpq objects of contiguous
// row ranges (columnar.Chunk.Split; an empty relation is one empty file)
// and returns the file references for queries. The bucket is created if
// missing. Re-uploading under an existing prefix overwrites the objects in
// place, so the session drops every cached result and every footer it holds
// — the file references alone can no longer tell old data from new.
func (d *Session) UploadTable(env simenv.Env, bucket, prefix string, data *columnar.Chunk, nfiles int, opts lpq.WriterOptions) ([]scan.FileRef, error) {
	d.dep.S3.MustCreateBucket(bucket)
	client := s3.NewClient(d.dep.S3, env, s3.WithPolicy(d.retryPolicy(-1)))
	var refs []scan.FileRef
	for idx, part := range data.Split(nfiles) {
		blob, err := lpq.WriteFile(data.Schema, opts, part)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%s/part-%05d.lpq", prefix, idx)
		if err := client.Put(bucket, key, blob); err != nil {
			return nil, err
		}
		refs = append(refs, scan.FileRef{Bucket: bucket, Key: key})
	}
	d.InvalidateResultCache()
	return refs, nil
}
