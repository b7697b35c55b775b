package predict

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

// These tests pin the sweep-engine side of the §5h contract: a confident
// model short-circuits simulation with labeled rows, and a rejecting model
// leaves the sweep byte-for-byte identical to one with no predictor at all
// — same tables, same store keys.

func queryGrid() sweep.Grid {
	g := trainGrid()
	g.Minibatches = []int{3} // unseen by the fit, inside the trained hull
	return g
}

// The acceptance-criteria test: when confidence gating rejects every cell,
// the -predict path must produce byte-identical tables AND identical store
// traffic to a run without the predictor.
func TestFallbackByteIdentity(t *testing.T) {
	m, _ := fittedModel(t)
	// A zero slack admits nothing: every distance is > 0 × radius.
	never := *m
	never.Slack = 1e-12
	g := queryGrid()

	dirA, dirB := t.TempDir(), t.TempDir()
	run := func(dir string, p sweep.Predictor) ([]byte, []string) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		results, err := sweep.RunGrid(context.Background(), g, sweep.Options{Store: st, Predictor: p})
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := sweep.WriteCSV(&csv, results); err != nil {
			t.Fatal(err)
		}
		return csv.Bytes(), st.Keys()
	}
	plainCSV, plainKeys := run(dirA, nil)
	predCSV, predKeys := run(dirB, &never)

	if !bytes.Equal(plainCSV, predCSV) {
		t.Errorf("all-fallback -predict table differs from no-predict table:\n--- no predictor\n%s--- predictor\n%s", plainCSV, predCSV)
	}
	if !reflect.DeepEqual(plainKeys, predKeys) {
		t.Errorf("all-fallback -predict store keys differ: %v vs %v", plainKeys, predKeys)
	}
	if len(plainKeys) == 0 {
		t.Fatal("no-predict run wrote no store keys")
	}
}

// A confident model short-circuits simulation: rows are labeled predicted,
// carry no functional fingerprint, stay close to the exact cycles, and are
// never written to the result store (it holds exact measurements only).
func TestPredictedRowsLabeledAndUnstored(t *testing.T) {
	m, _ := fittedModel(t)
	g := queryGrid()

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	results, err := sweep.RunGrid(context.Background(), g, sweep.Options{Store: st, Predictor: m, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sweep.RunGrid(context.Background(), g, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}

	hits := 0
	for i, r := range results {
		if r.Source != sweep.SourcePredicted {
			continue
		}
		hits++
		if r.Checksum != 0 || r.Instructions != 0 {
			t.Errorf("%s: predicted row carries exact-only fields (checksum=%g instructions=%d)", r.Name(), r.Checksum, r.Instructions)
		}
		relErr := math.Abs(float64(r.Cycles)-float64(exact[i].Cycles)) / float64(exact[i].Cycles)
		if relErr > defaultErrBudget {
			t.Errorf("%s: predicted cycles %d vs exact %d (%.1f%% error, budget %.0f%%)",
				r.Name(), r.Cycles, exact[i].Cycles, relErr*100, defaultErrBudget*100)
		}
		var attrSum int64
		for _, a := range []int64{r.AttrCompute, r.AttrDMAWait, r.AttrTracker, r.AttrLink, r.AttrOther} {
			if a < 0 {
				t.Errorf("%s: negative stall bucket", r.Name())
			}
			attrSum += a
		}
		if attrSum == 0 {
			t.Errorf("%s: predicted row has an empty stall breakdown", r.Name())
		}
	}
	if hits == 0 {
		t.Fatal("confidence gate admitted no in-hull topology-matched cells")
	}
	if keys := st.Keys(); len(keys) != 0 {
		t.Errorf("predicted cells leaked into the result store: %d keys", len(keys))
	}

	// Outcome counters are recorded once, in expanded-job units.
	snap := reg.Snapshot()
	var hitCount, fbCount int64
	for _, c := range snap.Counters {
		switch c.Name {
		case "sweep.predict.hits":
			hitCount = c.Value
		case "sweep.predict.fallbacks":
			fbCount = c.Value
		}
	}
	if int(hitCount) != hits {
		t.Errorf("sweep.predict.hits = %d, want %d", hitCount, hits)
	}
	if int(hitCount+fbCount) != len(results) {
		t.Errorf("hits %d + fallbacks %d != %d jobs", hitCount, fbCount, len(results))
	}
}

// Exact answers always win: a store that already holds a cell serves it
// even when the predictor is confident, so warming the store then enabling
// -predict returns exact rows.
func TestStoreHitsBeatPredictor(t *testing.T) {
	m, _ := fittedModel(t)
	g := queryGrid()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sweep.RunGrid(context.Background(), g, sweep.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sweep.RunGrid(context.Background(), g, sweep.Options{Store: st, Predictor: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if replay[i].Source != sweep.SourceExact {
			t.Errorf("%s: store hit replaced by %s result", replay[i].Name(), replay[i].Source)
		}
		if replay[i] != warm[i] {
			t.Errorf("%s: store replay with predictor differs from warm run", replay[i].Name())
		}
	}
}
