package driver

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
)

// assertQueryClean is the leak audit: once a query is over — however it
// ended — nothing of it may remain on the substrate. No private result
// queue, no object under the query's prefix in any shard bucket, and no
// admission token still held when the session runs under admission. Call it
// on a quiescent deployment: after Kernel.Run under DES; with goroutine
// workers it first waits out containers the query left running.
func assertQueryClean(t *testing.T, sess *Session, queryID string) {
	t.Helper()
	if err := queryLeaks(sess, queryID); err != nil {
		t.Error(err)
	}
}

// queryLeaks is assertQueryClean's audit: the first thing of the query left
// behind, or nil.
func queryLeaks(sess *Session, queryID string) error {
	dep, cfg := sess.dep, sess.cfg
	for deadline := time.Now().Add(5 * time.Second); dep.Lambda.Running() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	env := simenv.NewImmediate()

	// A deleted queue answers ErrNoSuchQueue; any other error is an injected
	// fault of a chaos deployment, so ask again.
	queue := queryQueueName(cfg.ResultQueue, queryID)
	for try := 0; ; try++ {
		_, err := dep.SQS.Receive(env, queue, 1)
		if errors.Is(err, sqs.ErrNoSuchQueue) {
			break
		}
		if err == nil || try == 16 {
			return fmt.Errorf("%s: result queue %s outlived the query (err = %v)", queryID, queue, err)
		}
	}

	client := s3.NewClient(dep.S3, env)
	prefix := cfg.FunctionName + "/" + queryID + "/"
	shards := strings.TrimSuffix(exchangeBucketName(cfg.FunctionName, 0), "0")
	for _, b := range dep.S3.Buckets() {
		if !strings.HasPrefix(b, shards) {
			continue
		}
		entries, err := client.List(b, prefix)
		if err != nil {
			return fmt.Errorf("%s: listing %s: %v", queryID, b, err)
		}
		if len(entries) != 0 {
			return fmt.Errorf("%s: %d objects left under %s in %s (first: %s)", queryID, len(entries), prefix, b, entries[0].Key)
		}
	}

	if adm := sess.admission; adm != nil && adm.InFlight() != 0 {
		return fmt.Errorf("%s: %d admission tokens still held", queryID, adm.InFlight())
	}
	return nil
}
