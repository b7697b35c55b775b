package predict

import (
	"testing"

	"scaledeep/internal/dnn"
	"scaledeep/internal/sweep"
)

// FuzzDecodeModel feeds arbitrary bytes to Decode, which loads the model
// file behind sdserve's and sdsweep's -predict. It must never panic, and a
// model it accepts must answer PredictCell for one catalogue cell per
// workload without panicking. The seeds are the fitted model's encoding, a
// truncated copy and the model with a centroid longer than the feature
// vector.
func FuzzDecodeModel(f *testing.F) {
	m, _ := fittedModel(f)
	good, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(longCentroidModel(f))

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
		for _, net := range nets {
			m.PredictCell(net, chip, prec, 1, "eval", 1)
		}
	})
}
