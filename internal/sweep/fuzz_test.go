package sweep

import (
	"bytes"
	"fmt"
	"testing"

	"scaledeep/internal/telemetry"
)

// FuzzDecodeBlob feeds arbitrary payloads to decodeBlob, the decoder every
// store hit and coalesced flight trusts. It must never panic, and a payload
// it accepts must survive a round trip: its re-encoding decodes to the same
// Result and the same metrics snapshot, and encodes to the same bytes
// again. The seeds are a real encoded cell and the same cell with two
// histogram bounds swapped.
func FuzzDecodeBlob(f *testing.F) {
	job := Job{Workload: "simnet", Arch: "baseline", Minibatch: 1, Mode: "eval", Iters: 1}
	reg := telemetry.NewRegistry()
	r, err := runJob(job, reg, telemetry.TraceContext{})
	if err != nil {
		f.Fatal(err)
	}
	good := encodeBlob(r, reg)
	f.Add(good)
	f.Add(swapOpCycleBounds(f, good))
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, reg, err := decodeBlob(job, payload)
		if err != nil {
			return
		}
		again := encodeBlob(r, reg)
		r2, reg2, err := decodeBlob(job, again)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		// Printed with %v, floats compare by value with NaN equal to NaN.
		if a, b := fmt.Sprintf("%+v", r), fmt.Sprintf("%+v", r2); a != b {
			t.Fatalf("round trip changed the result: %s != %s", b, a)
		}
		if a, b := fmt.Sprintf("%+v", reg.Snapshot()), fmt.Sprintf("%+v", reg2.Snapshot()); a != b {
			t.Fatalf("round trip changed the metrics:\n%s\n!=\n%s", b, a)
		}
		if !bytes.Equal(encodeBlob(r2, reg2), again) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
