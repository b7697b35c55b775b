package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// FuzzSubmitSpec feeds arbitrary bodies to the POST /jobs handler of a
// fresh server that never runs its jobs, with rate limiting out of the
// way. The handler must never panic and must answer 202 or 400, and it may
// accept only a spec within maxJobCells whose reply counts exactly the
// cells its grid expands to.
func FuzzSubmitSpec(f *testing.F) {
	predict := testSpec()
	predict.Predict = true
	for _, sp := range []Spec{testSpec(), oversizedSpec(), predict} {
		body, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	good, _ := json.Marshal(testSpec())
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"workloads":["simnet"],"archs":["baseline"],"minibatches":[1],"modes":["infer"]}`))
	f.Add([]byte(`{"workloads":["simnet"],"archs":["baseline"],"minibatches":[1],"modes":["eval"],"format":"xml"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{RatePerSec: 1e9, Burst: 1 << 30})
		rec := postSpec(s, body)
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("status %d, want 202 or 400: %s", rec.Code, rec.Body)
		}
		// Decode the way the handler does: the first JSON value wins.
		var spec Spec
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		jobs, err := spec.grid().Jobs()
		if err != nil {
			t.Fatalf("accepted a spec whose grid is invalid: %v", err)
		}
		if len(jobs) > maxJobCells {
			t.Fatalf("accepted a %d-cell spec, bound %d", len(jobs), maxJobCells)
		}
		var doc struct {
			Jobs int `json:"jobs"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Jobs != len(jobs) {
			t.Fatalf("reply %s (%v) for a %d-cell grid", rec.Body, err, len(jobs))
		}
	})
}
