package compiler

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/dnn"
	"scaledeep/internal/sim"
	"scaledeep/internal/tensor"
	"scaledeep/internal/zoo"
)

// runInstalled runs c on a fresh machine installed by install, with a
// bias-free executor's weights, seeded inputs and, in training, golden
// outputs, and returns the run's stats and the last image's output.
func runInstalled(t *testing.T, c *Compiled, net *dnn.Network, chip arch.ChipConfig, prec arch.Precision,
	install func(*Compiled, *sim.Machine) error) (sim.Stats, []float32) {
	t.Helper()
	m := sim.NewMachine(chip, prec, true)
	if err := install(c, m); err != nil {
		t.Fatal(err)
	}
	e := dnn.NewExecutor(net, 1)
	e.NoBias = true
	if err := c.LoadWeights(m, e); err != nil {
		t.Fatal(err)
	}
	mb := c.Opts.Minibatch
	if err := c.LoadInputs(m, mkInputs(net, mb, 7)); err != nil {
		t.Fatal(err)
	}
	if c.Opts.Training {
		rng := tensor.NewRNG(11)
		golden := make([]*tensor.Tensor, mb)
		for i := range golden {
			golden[i] = tensor.New(int(c.OutputElems))
			rng.FillUniform(golden[i], 1)
		}
		if err := c.LoadGolden(m, golden); err != nil {
			t.Fatal(err)
		}
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, c.ReadOutput(m, mb-1)
}

// TestInstallLastOutputMatchesInstall runs cells on the sweep's baseline
// and half chips, installed with InstallLastOutput and with Install:
// training at one to three iterations, evaluation at one and, with off-chip
// weights, two, on-chip and off-chip weights and binary16, at minibatch 1,
// 7 and 24. Every Stats field and every bit of the last image's output must
// match: the data window changes no timing and leaves out no data that
// output depends on. (Evaluation past one iteration with on-chip weights
// deadlocks under either install: nothing rewrites the weights, and their
// trackers wait for a write each iteration.)
func TestInstallLastOutputMatchesInstall(t *testing.T) {
	half := arch.HalfPrecision().Cluster.Conv
	half.Rows, half.Cols = 3, 8
	type variant struct {
		name string
		opts Options
		chip arch.ChipConfig
		prec arch.Precision
	}
	var variants []variant
	for _, iters := range []int{1, 2, 3} {
		variants = append(variants, variant{name: fmt.Sprintf("train/iters%d", iters), opts: Options{Iterations: iters, Training: true}})
	}
	variants = append(variants,
		variant{name: "eval/iters1", opts: Options{}},
		variant{name: "eval/offchip", opts: Options{WeightsOffChip: true}},
		variant{name: "eval/iters2/offchip", opts: Options{Iterations: 2, WeightsOffChip: true}},
		variant{name: "train/offchip", opts: Options{Training: true, WeightsOffChip: true}},
		variant{name: "train/iters3/offchip", opts: Options{Iterations: 3, Training: true, WeightsOffChip: true}},
		variant{name: "eval/half", opts: Options{}, chip: half, prec: arch.Half},
		variant{name: "train/half", opts: Options{Training: true}, chip: half, prec: arch.Half},
	)
	nets := []func() *dnn.Network{simnet, zoo.MiniVGG, convPoolFCNet}
	for _, newNet := range nets {
		for _, mb := range []int{1, 7, 24} {
			for _, v := range variants {
				net := newNet()
				chip, prec := v.chip, v.prec
				if chip.Rows == 0 {
					chip, prec = sweepBaseline(), arch.Single
				}
				opts := v.opts
				opts.Minibatch, opts.LR = mb, 0.0625
				name := fmt.Sprintf("%s/mb%d/%s", net.Name, mb, v.name)
				c, err := Compile(net, chip, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, wantOut := runInstalled(t, c, net, chip, prec, (*Compiled).Install)
				got, gotOut := runInstalled(t, c, net, chip, prec, (*Compiled).InstallLastOutput)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: stats differ\nwindow  %v\ninstall %v", name, got, want)
				}
				for i := range wantOut {
					if math.Float32bits(gotOut[i]) != math.Float32bits(wantOut[i]) {
						t.Errorf("%s: last output[%d] = %v with the window, %v without", name, i, gotOut[i], wantOut[i])
						break
					}
				}
			}
		}
	}
}
