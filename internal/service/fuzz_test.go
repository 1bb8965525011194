package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lambada/internal/awssim/simenv"
)

var errNotRun = errors.New("fuzz: query not run")

// refusingRunner runs nothing: it counts the requests that reached it and
// fails each with errNotRun, so no fleet ever starts.
type refusingRunner struct{ calls int }

func (r *refusingRunner) Run(func(env simenv.Env) error) error {
	r.calls++
	return errNotRun
}

// FuzzQueryBody: a POST /query body is outside input, so whatever its bytes
// the handler answers without panicking — 400 or 413 for a body it refuses,
// and a body whose SQL parses reaches the runner, whose error is a 500.
func FuzzQueryBody(f *testing.F) {
	for _, tc := range badInputs() {
		f.Add([]byte(tc.body))
	}
	prefix, err := json.Marshal(QueryRequest{SQL: prefixSQL, Params: prefixParams})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prefix)
	f.Add([]byte(`{"name": "q1"}`))

	runner := &refusingRunner{}
	h := New(Config{Runner: runner, Queries: map[string]string{"q1": q1SQL}}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		runner.calls = 0
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		switch {
		case runner.calls > 0:
			if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), errNotRun.Error()) {
				t.Fatalf("runner's error answered %d %q, want 500 with the error", rec.Code, rec.Body)
			}
		case rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge:
			t.Fatalf("body %q answered %d %q without reaching the runner, want 400 or 413", body, rec.Code, rec.Body)
		}
	})
}
