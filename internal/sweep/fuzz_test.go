package sweep

import (
	"testing"

	"scaledeep/internal/telemetry"
)

// FuzzDecodeBlob feeds arbitrary payloads to decodeBlob, the decoder every
// store hit and coalesced flight trusts. It must never panic, and a payload
// it accepts must survive a round trip: re-encoding the decoded result and
// registry and decoding again gives the same Result. The seeds are a real
// encoded cell and the same cell with two histogram bounds swapped.
func FuzzDecodeBlob(f *testing.F) {
	job := Job{Workload: "simnet", Arch: "baseline", Minibatch: 1, Mode: "eval", Iters: 1}
	reg := telemetry.NewRegistry()
	r, err := runJob(job, reg, telemetry.TraceContext{})
	if err != nil {
		f.Fatal(err)
	}
	good, err := encodeBlob(job, r, reg.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(swapOpCycleBounds(f, good))
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, reg, err := decodeBlob(job, payload)
		if err != nil {
			return
		}
		again, err := encodeBlob(job, r, reg.Snapshot())
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		r2, _, err := decodeBlob(job, again)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if r2 != r {
			t.Fatalf("round trip changed the result: %+v != %+v", r2, r)
		}
	})
}
