package compiler

import (
	"fmt"
	"time"

	"scaledeep/internal/arch"
	"scaledeep/internal/dnn"
	"scaledeep/internal/sim"
	"scaledeep/internal/tensor"
)

// This file binds compiled programs to a simulator instance: installing
// programs and trackers, pre-loading weights in the compiler's on-chip
// layout, staging inputs and golden outputs in external memory, and reading
// results and trained weights back out.

// Install loads every program and arms the tracker manifest on m.
func (c *Compiled) Install(m *sim.Machine) error {
	for k, p := range c.Programs {
		if err := m.LoadProgram(k.Row, k.CCol, k.Step, p); err != nil {
			return fmt.Errorf("compiler: install %v: %w", k, err)
		}
	}
	m.ArmTrackers(c.Trackers)
	return nil
}

// InstallLastOutput installs c like Install for a caller that reads back
// only the last image's output (ReadOutput of image Minibatch−1), and
// narrows each tile's data window to the ops that output depends on: the
// last image's copy of the per-image section, on every tile in evaluation
// and on the FP tiles in one-iteration training, where the BP and WG tiles
// run no datapath. Training past one iteration keeps every program's
// window whole, since the weight update feeds the next iteration.
//
// The windows are exact, not a heuristic. Timing never depends on data. A
// forward op of a one-iteration program reads only the preloaded inputs
// and weights and regions that forward ops write, and each image's forward
// ops write every range of the shared scratch (partial sums, activation
// staging, FC stages) before they read it: an NDCONV with its accumulate
// flag clear or a MEMSET starts each partial sum, and the staging stores do
// not accumulate. So the last image's output, and every statistic, equal
// Install's bit for bit; the other images' outputs, every error and
// gradient, and the weight update are not computed.
func (c *Compiled) InstallLastOutput(m *sim.Machine) error {
	if err := c.Install(m); err != nil {
		return err
	}
	if c.Opts.Training && c.Opts.Iterations > 1 {
		return nil
	}
	for k, r := range c.lastImage {
		if c.Opts.Training && k.Step != sim.StepFP {
			r = pcRange{}
		}
		if err := m.SetDataWindow(k.Row, k.CCol, k.Step, r.lo, r.hi); err != nil {
			return fmt.Errorf("compiler: install %v: %w", k, err)
		}
	}
	return nil
}

// LoadWeights writes an executor's current parameters into the simulator's
// scratchpads using the compiled layout (per input feature g, the kernels
// for every output feature consecutively; per FC slice, the contiguous
// weight rows). Biases must be zero — the hardware path folds no bias term
// (see Executor.NoBias).
func (c *Compiled) LoadWeights(m *sim.Machine, e *dnn.Executor) error {
	write := func(li, unit int, vals []float32) {
		if r := c.weightRegions[li][unit]; r != nil {
			m.WriteMem(r.tile, r.addr, vals)
			return
		}
		m.WriteExt(extWeightBase+c.extWeightAddrs[li][unit], vals)
	}
	units := func(li int) int {
		if n := len(c.weightRegions[li]); n > 0 {
			return n
		}
		return len(c.extWeightAddrs[li])
	}
	for li := range c.weightRegions {
		l := c.Mapping.Net.Layers[li]
		w := e.Weights[li]
		if w == nil {
			return fmt.Errorf("compiler: layer %s has no executor weights", l.Name)
		}
		switch l.Kind {
		case dnn.Conv:
			k2 := l.ConvP.KH * l.ConvP.KW
			for g2 := 0; g2 < l.In.C; g2++ {
				vals := make([]float32, l.OutChannels*k2)
				for f := 0; f < l.OutChannels; f++ {
					src := ((f*l.In.C + g2) * k2)
					copy(vals[f*k2:(f+1)*k2], w.Data[src:src+k2])
				}
				write(li, g2, vals)
			}
		case dnn.FC:
			inLen := l.In.Elems()
			n := units(li)
			for s := 0; s < n; s++ {
				off := sliceOff(l.OutNeurons, n, s) * inLen
				sl := sliceLen(l.OutNeurons, n, s) * inLen
				write(li, s, w.Data[off:off+sl])
			}
		}
	}
	return nil
}

// ReadWeights reads the (possibly trained) weights of one layer back from
// the simulator in executor layout. Reads go through the simulator's Into
// variants: FC slices land directly in the result tensor, and the Conv path
// reuses one staging buffer across input features, so readback allocates
// only the tensor it returns.
func (c *Compiled) ReadWeights(m *sim.Machine, layerIdx int) *tensor.Tensor {
	l := c.Mapping.Net.Layers[layerIdx]
	readInto := func(unit int, dst []float32) {
		if r := c.weightRegions[layerIdx][unit]; r != nil {
			m.ReadMemInto(r.tile, r.addr, dst)
			return
		}
		m.ReadExtInto(extWeightBase+c.extWeightAddrs[layerIdx][unit], dst)
	}
	units := func() int {
		if n := len(c.weightRegions[layerIdx]); n > 0 {
			return n
		}
		return len(c.extWeightAddrs[layerIdx])
	}
	switch l.Kind {
	case dnn.Conv:
		k2 := l.ConvP.KH * l.ConvP.KW
		w := tensor.New(l.OutChannels, l.In.C, l.ConvP.KH, l.ConvP.KW)
		vals := make([]float32, l.OutChannels*k2)
		for g2 := 0; g2 < l.In.C; g2++ {
			readInto(g2, vals)
			for f := 0; f < l.OutChannels; f++ {
				dst := (f*l.In.C + g2) * k2
				copy(w.Data[dst:dst+k2], vals[f*k2:(f+1)*k2])
			}
		}
		return w
	case dnn.FC:
		inLen := l.In.Elems()
		w := tensor.New(l.OutNeurons, inLen)
		n := units()
		for s := 0; s < n; s++ {
			off := sliceOff(l.OutNeurons, n, s) * inLen
			sl := sliceLen(l.OutNeurons, n, s) * inLen
			readInto(s, w.Data[off:off+sl])
		}
		return w
	default:
		panic("compiler: ReadWeights on weightless layer")
	}
}

// LoadInputs stages the minibatch input images in external memory.
func (c *Compiled) LoadInputs(m *sim.Machine, images []*tensor.Tensor) error {
	if len(images) != c.Opts.Minibatch {
		return fmt.Errorf("compiler: %d images for minibatch %d", len(images), c.Opts.Minibatch)
	}
	for i, img := range images {
		if int64(img.Len()) != c.InputElems {
			return fmt.Errorf("compiler: image %d has %d elements, want %d", i, img.Len(), c.InputElems)
		}
		m.WriteExt(extInputBase+int64(i)*c.InputElems, img.Data)
	}
	return nil
}

// LoadGolden stages the golden output vectors for the minibatch.
func (c *Compiled) LoadGolden(m *sim.Machine, golden []*tensor.Tensor) error {
	if len(golden) != c.Opts.Minibatch {
		return fmt.Errorf("compiler: %d golden vectors for minibatch %d", len(golden), c.Opts.Minibatch)
	}
	for i, gv := range golden {
		if int64(gv.Len()) != c.OutputElems {
			return fmt.Errorf("compiler: golden %d has %d elements, want %d", i, gv.Len(), c.OutputElems)
		}
		m.WriteExt(extGoldenBase+int64(i)*c.OutputElems, gv.Data)
	}
	return nil
}

// ReadOutput reads the network output for minibatch image i (written to the
// per-image output area in external memory by the final layer's FP code).
func (c *Compiled) ReadOutput(m *sim.Machine, i int) []float32 {
	out := make([]float32, c.OutputElems)
	c.ReadOutputInto(m, i, out)
	return out
}

// ReadOutputInto reads the network output for image i into dst (sized
// OutputElems by the caller); the buffer-reusing variant of ReadOutput for
// loops that read many outputs.
func (c *Compiled) ReadOutputInto(m *sim.Machine, i int, dst []float32) {
	m.ReadExtInto(extOutputBase+int64(i)*c.OutputElems, dst)
}

// TotalInstructions sums the instruction counts of every generated program.
func (c *Compiled) TotalInstructions() int {
	n := 0
	for _, p := range c.Programs {
		n += len(p.Instrs)
	}
	return n
}

// Compile is the convenience front-end: workload mapping followed by code
// generation, the full pipeline of Fig. 13. When opts.Spans is set, the
// map/bind/emit/finalize phases are recorded as wall-time spans on one
// shared timeline.
func Compile(net *dnn.Network, chip arch.ChipConfig, opts Options) (*Compiled, error) {
	base := time.Now()
	m, err := Map(net, chip)
	if err != nil {
		return nil, err
	}
	phaseSpan(opts.Spans, base, base, "map")
	return generate(m, opts, base)
}
