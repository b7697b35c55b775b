package predict

import (
	"encoding/json"
	"testing"

	"scaledeep/internal/dnn"
	"scaledeep/internal/sweep"
)

// FuzzDecodeModel feeds arbitrary bytes to Decode, which loads the model
// file behind sdserve's and sdsweep's -predict. It must never panic, a
// model it accepts must carry exactly one attr_w vector per stall bucket,
// and it must answer PredictCell for one catalogue cell per workload
// without panicking. The seeds are the fitted model's encoding, a
// truncated copy, the model with a centroid longer than the feature vector
// and the model with a sixth stall-bucket weight vector.
func FuzzDecodeModel(f *testing.F) {
	m, _ := fittedModel(f)
	good, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(longCentroidModel(f))
	f.Add(sixAttrModel(f))

	chip, prec, err := sweep.ArchFor("baseline")
	if err != nil {
		f.Fatal(err)
	}
	var nets []*dnn.Network
	for _, wl := range sweep.Workloads() {
		net, err := sweep.BuildWorkload(wl)
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, net)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		var doc struct {
			AttrW []json.RawMessage `json:"attr_w"`
		}
		if json.Unmarshal(data, &doc) == nil && len(doc.AttrW) != len(m.AttrW) {
			t.Fatalf("Decode accepted %d stall-bucket weight vectors, want %d", len(doc.AttrW), len(m.AttrW))
		}
		for _, net := range nets {
			m.PredictCell(net, chip, prec, 1, "eval", 1)
		}
	})
}
