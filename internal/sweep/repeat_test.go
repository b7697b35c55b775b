package sweep

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"testing"
	"time"

	"scaledeep/internal/compiler"
	"scaledeep/internal/sim"
	"scaledeep/internal/telemetry"
)

// templateRun is what one install of a compile produced: its statistics,
// its trace, each tile's per-pc profile (by tile name), and the bits of
// every image's output and, in training, of every layer's weights.
type templateRun struct {
	stats    sim.Stats
	spans    []telemetry.Span
	dropped  int64
	profiles map[string]*sim.InstrProfile
	outputs  [][]uint32
	weights  [][]uint32
}

// TestTemplateRunsAsExpansion installs each compile on two fresh machines:
// once with its programs as compiled, whose tiles run every image's copy
// of the per-image section from the one stored copy, and once with each
// program Expand()ed, every copy laid out with its LDRIs rebased. Both
// install whole programs, so every op moves data. Every Stats field, trace
// span and per-pc profile, and every bit of every image's output and of
// the trained weights, must be equal. The cells are cold-sweep's (96 of
// them under the race detector), then training at two and three
// iterations, with off-chip weights, and evaluation at two iterations, on
// both archs.
func TestTemplateRunsAsExpansion(t *testing.T) {
	g := coldSweepCells()
	if raceEnabled {
		g = coldSweepGrid()
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		job     Job
		iters   int
		offChip bool
	}
	var cells []cell
	for _, job := range jobs {
		cells = append(cells, cell{job: job, iters: 1})
	}
	for _, w := range Workloads() {
		for _, a := range Archs() {
			for _, mb := range []int{2, 5} {
				for _, v := range []cell{
					{job: Job{Mode: "train"}, iters: 2},
					{job: Job{Mode: "train"}, iters: 3},
					{job: Job{Mode: "train"}, iters: 2, offChip: true},
					{job: Job{Mode: "eval"}, iters: 2},
					{job: Job{Mode: "eval"}, iters: 2, offChip: true},
				} {
					v.job.Workload, v.job.Arch, v.job.Minibatch, v.job.Iters = w, a, mb, v.iters
					cells = append(cells, v)
				}
			}
		}
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s/iters%d/offchip=%v", c.job.Name(), c.iters, c.offChip)
		net, err := BuildWorkload(c.job.Workload)
		if err != nil {
			t.Fatal(err)
		}
		chip, prec, err := ArchFor(c.job.Arch)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := compiler.Compile(net, chip, compiler.Options{
			Minibatch: c.job.Minibatch, Iterations: c.iters, Training: c.job.Mode == "train", LR: 0.0625,
			WeightsOffChip: c.offChip,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flat := *comp
		flat.Programs = maps.Clone(comp.Programs)
		for k, p := range flat.Programs {
			flat.Programs[k] = p.Expand()
		}
		run := func(cc *compiler.Compiled, job Job) templateRun {
			t.Helper()
			m := sim.NewMachine(chip, prec, true)
			jt := telemetry.NewJobTrace("template", 1<<16, func() time.Time { return time.Time{} })
			m.SetSpanSink(jt.Context(0, ""))
			m.EnableInstrProfile()
			if err := cc.Install(m); err != nil {
				t.Fatal(err)
			}
			if err := LoadCell(cc, m); err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r := templateRun{stats: st, spans: jt.Assemble(), dropped: jt.Dropped(), profiles: map[string]*sim.InstrProfile{}}
			for k, p := range cc.Programs {
				r.profiles[p.Tile] = m.InstrProfile(k.Row, k.CCol, k.Step)
			}
			for i := range job.Minibatch {
				r.outputs = append(r.outputs, float32Bits(cc.ReadOutput(m, i)))
			}
			if job.Mode == "train" {
				for li, l := range net.Layers {
					if l.HasWeights() {
						r.weights = append(r.weights, float32Bits(cc.ReadWeights(m, li).Data))
					}
				}
			}
			return r
		}
		got, want := run(comp, c.job), run(&flat, c.job)
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("%s: stats %+v, expansion %+v", name, got.stats, want.stats)
		}
		if got.dropped != want.dropped || !reflect.DeepEqual(got.spans, want.spans) {
			t.Errorf("%s: %d spans (%d dropped), expansion %d (%d dropped), or they differ",
				name, len(got.spans), got.dropped, len(want.spans), want.dropped)
		}
		if !reflect.DeepEqual(got.profiles, want.profiles) {
			t.Errorf("%s: per-pc profiles differ from the expansion's", name)
		}
		if !reflect.DeepEqual(got.outputs, want.outputs) || !reflect.DeepEqual(got.weights, want.weights) {
			t.Errorf("%s: outputs or weights differ from the expansion's", name)
		}
	}
}

// float32Bits returns the bit patterns of vs, so that equal runs compare
// equal even where a value is NaN.
func float32Bits(vs []float32) []uint32 {
	out := make([]uint32, len(vs))
	for i, v := range vs {
		out[i] = math.Float32bits(v)
	}
	return out
}
