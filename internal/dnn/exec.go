package dnn

import (
	"fmt"
	"time"

	"scaledeep/internal/telemetry"
	"scaledeep/internal/tensor"
)

// Executor runs a Network functionally on the tensor reference math: forward
// propagation, backpropagation, weight-gradient accumulation and SGD weight
// updates (§2.2). It is the golden model the ScaleDeep functional simulator
// is validated against, and powers the runnable training examples.
//
// Minibatches are processed one input at a time with gradients accumulated
// across the batch — mirroring the hardware, where FP/BP/WG for the inputs of
// a minibatch proceed through the pipeline and gradients are accumulated
// before the weight update.
type Executor struct {
	Net *Network

	// Weights[i] / Biases[i] are the parameters of layer i (nil for layers
	// without weights). Conv weights are (Cout, Cin/groups, KH, KW); FC
	// weights are (OutNeurons, InElems).
	Weights []*tensor.Tensor
	Biases  []*tensor.Tensor

	// GradW/GradB accumulate minibatch weight gradients.
	GradW []*tensor.Tensor
	GradB []*tensor.Tensor

	// NoBias freezes biases at zero (forward is unaffected since biases
	// initialize to zero; Step skips the bias update). The ScaleDeep
	// functional backend folds no bias term, so equivalence tests set this.
	NoBias bool

	// Spans, when non-nil, receives wall-time spans (µs) for per-layer
	// forward/backward work and per-epoch training timings (telemetry.go).
	Spans telemetry.SpanSink

	// Per-input forward state (valid after Forward).
	Acts     []*tensor.Tensor // post-activation outputs per layer
	poolArg  [][]int32        // max-pool argmax indices per layer
	spanBase time.Time        // telemetry clock zero, set on first span

	// Kernel scratch, reused across layers and calls: the im2col panel for
	// the blocked convolution kernels and the softmax cross-entropy gradient
	// of the training loop.
	scratch tensor.ConvScratch
	smGrad  *tensor.Tensor
}

// NewExecutor allocates parameters for net, initialized with small
// deterministic pseudo-random values from seed.
func NewExecutor(net *Network, seed uint64) *Executor {
	e := &Executor{
		Net:     net,
		Weights: make([]*tensor.Tensor, len(net.Layers)),
		Biases:  make([]*tensor.Tensor, len(net.Layers)),
		GradW:   make([]*tensor.Tensor, len(net.Layers)),
		GradB:   make([]*tensor.Tensor, len(net.Layers)),
		Acts:    make([]*tensor.Tensor, len(net.Layers)),
		poolArg: make([][]int32, len(net.Layers)),
	}
	rng := tensor.NewRNG(seed)
	for i, l := range net.Layers {
		if l.SharedWith >= 0 {
			// Weight-tied layer: alias the earlier layer's parameters and
			// gradient accumulators (unrolled recurrence shares one matrix).
			e.Weights[i] = e.Weights[l.SharedWith]
			e.Biases[i] = e.Biases[l.SharedWith]
			e.GradW[i] = e.GradW[l.SharedWith]
			e.GradB[i] = e.GradB[l.SharedWith]
			continue
		}
		switch l.Kind {
		case Conv:
			e.Weights[i] = tensor.New(l.OutChannels, l.In.C/l.Groups, l.ConvP.KH, l.ConvP.KW)
			fanIn := float32(l.In.C / l.Groups * l.ConvP.KH * l.ConvP.KW)
			rng.FillUniform(e.Weights[i], 1/sqrt32(fanIn))
			e.Biases[i] = tensor.New(l.OutChannels)
			e.GradW[i] = tensor.New(l.OutChannels, l.In.C/l.Groups, l.ConvP.KH, l.ConvP.KW)
			e.GradB[i] = tensor.New(l.OutChannels)
		case FC:
			in := l.In.Elems()
			e.Weights[i] = tensor.New(l.OutNeurons, in)
			rng.FillUniform(e.Weights[i], 1/sqrt32(float32(in)))
			e.Biases[i] = tensor.New(l.OutNeurons)
			e.GradW[i] = tensor.New(l.OutNeurons, in)
			e.GradB[i] = tensor.New(l.OutNeurons)
		}
	}
	return e
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 1
	}
	// Newton iterations are plenty for init scaling.
	g := x
	for i := 0; i < 20; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

// Forward runs FP for one input, storing per-layer activations.
func (e *Executor) Forward(input *tensor.Tensor) *tensor.Tensor {
	for i, l := range e.Net.Layers {
		var t0 int64
		if e.Spans != nil {
			t0 = e.spanNow()
		}
		switch l.Kind {
		case Input:
			if input.Shape[0] != l.Out.C || input.Shape[1] != l.Out.H || input.Shape[2] != l.Out.W {
				panic(fmt.Sprintf("dnn: input shape %v, want %v", input.Shape, l.Out))
			}
			e.Acts[i] = input
		case Conv:
			in := e.Acts[l.Inputs[0]]
			var out *tensor.Tensor
			if l.Groups == 1 {
				oh, ow := l.ConvP.ConvOutShape(in.Shape[1], in.Shape[2])
				out = tensor.New(l.OutChannels, oh, ow)
				tensor.Conv2DInto(out, in, e.Weights[i], e.Biases[i], l.ConvP, &e.scratch)
			} else {
				out = e.groupedConvForward(l, in)
			}
			e.Acts[i] = tensor.ActivateInto(out, out, l.Act)
		case Pool:
			in := e.Acts[l.Inputs[0]]
			oh, ow := l.PoolP.OutShape(in.Shape[1], in.Shape[2])
			out := tensor.New(in.Shape[0], oh, ow)
			var arg []int32
			if l.PoolP.Kind == tensor.MaxPool {
				arg = make([]int32, out.Len())
			}
			e.Acts[i] = tensor.Pool2DInto(out, in, arg, l.PoolP)
			e.poolArg[i] = arg
		case FC:
			in := flatten(e.Acts[l.Inputs[0]])
			out := tensor.MatVec(e.Weights[i], in, e.Biases[i])
			e.Acts[i] = tensor.ActivateInto(out, out, l.Act)
		case Concat:
			e.Acts[i] = e.concatForward(l)
		case Add:
			a := e.Acts[l.Inputs[0]].Clone()
			tensor.Add(a, e.Acts[l.Inputs[1]])
			e.Acts[i] = a
		case Mul:
			out := tensor.New(l.Out.C, l.Out.H, l.Out.W)
			tensor.Mul(out, e.Acts[l.Inputs[0]], e.Acts[l.Inputs[1]])
			e.Acts[i] = out
		case Act:
			e.Acts[i] = tensor.Activate(e.Acts[l.Inputs[0]], l.Act)
		case Slice:
			in := e.Acts[l.Inputs[0]]
			out := tensor.New(l.Out.C, l.Out.H, l.Out.W)
			hw := l.Out.H * l.Out.W
			copy(out.Data, in.Data[l.SliceFrom*hw:(l.SliceFrom+l.Out.C)*hw])
			e.Acts[i] = out
		case Softmax:
			e.Acts[i] = tensor.Softmax(flatten(e.Acts[l.Inputs[0]]))
		}
		if e.Spans != nil && l.Kind != Input {
			e.layerSpan("dnn/fp", l.Name, t0)
		}
	}
	return e.Acts[len(e.Net.Layers)-1]
}

// Loss returns the cross-entropy loss of the last Forward against label.
func (e *Executor) Loss(label int) float64 {
	out := e.Acts[len(e.Net.Layers)-1]
	if e.Net.OutputLayer().Kind != Softmax {
		panic("dnn: Loss requires a Softmax output layer")
	}
	return tensor.CrossEntropyLoss(out, label)
}

// Backward runs BP and WG for one input after Forward, accumulating weight
// gradients. label selects the golden output class for the softmax head.
func (e *Executor) Backward(label int) {
	e.backprop(make([]*tensor.Tensor, len(e.Net.Layers)), label)
}

// BackwardFrom runs BP and WG seeding an arbitrary error at the final
// layer's output — the path ScaleDeep's head uses, where the error is the
// difference between the network output and the golden output (§3.2.3).
func (e *Executor) BackwardFrom(gradOut *tensor.Tensor) {
	n := len(e.Net.Layers)
	grads := make([]*tensor.Tensor, n)
	grads[n-1] = gradOut.Clone()
	e.backprop(grads, -1)
}

func (e *Executor) backprop(grads []*tensor.Tensor, label int) {
	n := len(e.Net.Layers)
	for i := n - 1; i >= 0; i-- {
		l := e.Net.Layers[i]
		g := grads[i]
		var t0 int64
		if e.Spans != nil {
			t0 = e.spanNow()
		}
		if l.Kind == Softmax {
			if g == nil {
				if label < 0 {
					panic("dnn: softmax backprop without a label")
				}
				// Reuse the executor-owned gradient buffer: it is fully
				// consumed within this backprop pass, so the training loop
				// allocates no softmax gradient per input.
				if e.smGrad == nil || e.smGrad.Len() != e.Acts[i].Len() {
					e.smGrad = tensor.New(e.Acts[i].Len())
				}
				g = tensor.SoftmaxCrossEntropyGradInto(e.smGrad, e.Acts[i], label)
			}
			accumGrad(grads, l.Inputs[0], reshapeLike(g, e.Acts[l.Inputs[0]]))
			if e.Spans != nil {
				e.layerSpan("dnn/bp", l.Name, t0)
			}
			continue
		}
		if g == nil {
			continue // layer feeds nothing that produced error (dead branch)
		}
		switch l.Kind {
		case Input:
			// Error at the input is discarded.
		case Conv:
			// In-place activation backward: grads[i] is owned by this layer
			// now (every consumer already accumulated into it).
			g = tensor.ActivateBackwardInto(g, g, e.Acts[i], l.Act)
			in := e.Acts[l.Inputs[0]]
			if l.Groups == 1 {
				tensor.Conv2DBackwardWeightsInto(in, g, e.GradW[i], l.ConvP, &e.scratch)
				tensor.Conv2DBiasGradient(g, e.GradB[i])
				gin := tensor.New(in.Shape[0], in.Shape[1], in.Shape[2])
				tensor.Conv2DBackwardDataInto(gin, g, e.Weights[i], l.ConvP, in.Shape[1], in.Shape[2])
				accumGrad(grads, l.Inputs[0], gin)
			} else {
				e.groupedConvBackward(l, i, in, g, grads)
			}
		case Pool:
			in := e.Acts[l.Inputs[0]]
			gin := tensor.Pool2DBackwardInto(tensor.New(in.Shape[0], in.Shape[1], in.Shape[2]), g, e.poolArg[i], l.PoolP)
			accumGrad(grads, l.Inputs[0], gin)
		case FC:
			g = tensor.ActivateBackwardInto(g, g, e.Acts[i], l.Act)
			in := flatten(e.Acts[l.Inputs[0]])
			tensor.OuterAcc(e.GradW[i], g, in)
			tensor.Add(e.GradB[i], g)
			gin := tensor.MatVecT(e.Weights[i], g)
			accumGrad(grads, l.Inputs[0], reshapeLike(gin, e.Acts[l.Inputs[0]]))
		case Concat:
			off := 0
			for _, src := range l.Inputs {
				s := e.Acts[src]
				part := tensor.New(s.Shape...)
				copy(part.Data, g.Data[off:off+part.Len()])
				off += part.Len()
				accumGrad(grads, src, part)
			}
		case Add:
			accumGrad(grads, l.Inputs[0], g)
			accumGrad(grads, l.Inputs[1], g.Clone())
		case Mul:
			ga := tensor.New(l.Out.C, l.Out.H, l.Out.W)
			tensor.Mul(ga, g, e.Acts[l.Inputs[1]])
			accumGrad(grads, l.Inputs[0], ga)
			gb := tensor.New(l.Out.C, l.Out.H, l.Out.W)
			tensor.Mul(gb, g, e.Acts[l.Inputs[0]])
			accumGrad(grads, l.Inputs[1], gb)
		case Act:
			accumGrad(grads, l.Inputs[0], tensor.ActivateBackward(g, e.Acts[i], l.Act))
		case Slice:
			full := tensor.New(l.In.C, l.In.H, l.In.W)
			hw := l.In.H * l.In.W
			copy(full.Data[l.SliceFrom*hw:], g.Data)
			accumGrad(grads, l.Inputs[0], full)
		}
		if e.Spans != nil && l.Kind != Input {
			e.layerSpan("dnn/bp", l.Name, t0)
		}
	}
}

// accumGrad adds g into grads[i], installing it if absent. Multiple
// consumers of a layer accumulate their errors — the same commutative
// accumulation the data-flow trackers exploit.
func accumGrad(grads []*tensor.Tensor, i int, g *tensor.Tensor) {
	if grads[i] == nil {
		grads[i] = g
	} else {
		tensor.Add(grads[i], g)
	}
}

// Step applies SGD: W -= lr/batch * dW, then zeroes the gradients.
func (e *Executor) Step(lr float32, batch int) {
	scale := -lr / float32(batch)
	for i := range e.Weights {
		if e.Weights[i] == nil {
			continue
		}
		if e.Net.Layers[i].SharedWith >= 0 {
			continue // aliased parameters update once, at their owner
		}
		tensor.AXPY(e.Weights[i], scale, e.GradW[i])
		if !e.NoBias {
			tensor.AXPY(e.Biases[i], scale, e.GradB[i])
		}
		e.GradW[i].Zero()
		e.GradB[i].Zero()
	}
}

// TrainBatch runs one full minibatch iteration (FP+BP+WG per input, then the
// weight update) and returns the mean loss.
func (e *Executor) TrainBatch(inputs []*tensor.Tensor, labels []int, lr float32) float64 {
	if len(inputs) != len(labels) {
		panic("dnn: inputs/labels length mismatch")
	}
	var loss float64
	for i, in := range inputs {
		e.Forward(in)
		loss += e.Loss(labels[i])
		e.Backward(labels[i])
	}
	e.Step(lr, len(inputs))
	return loss / float64(len(inputs))
}

// Predict returns the argmax class of Forward(input).
func (e *Executor) Predict(input *tensor.Tensor) int {
	out := e.Forward(input)
	best := 0
	for i, v := range out.Data {
		if v > out.Data[best] {
			best = i
		}
	}
	return best
}

func flatten(t *tensor.Tensor) *tensor.Tensor {
	return tensor.FromSlice(t.Data, t.Len())
}

func reshapeLike(t, like *tensor.Tensor) *tensor.Tensor {
	return tensor.FromSlice(t.Data, like.Shape...)
}

// groupedConvForward implements grouped convolution by running each group's
// channel slice through the dense kernel.
func (e *Executor) groupedConvForward(l *Layer, in *tensor.Tensor) *tensor.Tensor {
	g := l.Groups
	cinG := l.In.C / g
	coutG := l.OutChannels / g
	oh, ow := l.ConvP.ConvOutShape(in.Shape[1], in.Shape[2])
	out := tensor.New(l.OutChannels, oh, ow)
	for gi := 0; gi < g; gi++ {
		inSlice := channelSlice(in, gi*cinG, cinG)
		wSlice := weightSlice(e.Weights[l.Index], gi*coutG, coutG)
		bSlice := tensor.FromSlice(e.Biases[l.Index].Data[gi*coutG:(gi+1)*coutG], coutG)
		// The group's output channels are contiguous in out, so the kernel
		// writes its destination view directly.
		oSlice := channelSlice(out, gi*coutG, coutG)
		tensor.Conv2DInto(oSlice, inSlice, wSlice, bSlice, l.ConvP, &e.scratch)
	}
	return out
}

func (e *Executor) groupedConvBackward(l *Layer, idx int, in, g *tensor.Tensor, grads []*tensor.Tensor) {
	gr := l.Groups
	cinG := l.In.C / gr
	coutG := l.OutChannels / gr
	oh, ow := g.Shape[1], g.Shape[2]
	gin := tensor.New(in.Shape[0], in.Shape[1], in.Shape[2])
	for gi := 0; gi < gr; gi++ {
		inSlice := channelSlice(in, gi*cinG, cinG)
		gSlice := channelSlice(g, gi*coutG, coutG)
		wSlice := weightSlice(e.Weights[idx], gi*coutG, coutG)
		gwSlice := weightSlice(e.GradW[idx], gi*coutG, coutG)
		tensor.Conv2DBackwardWeightsInto(inSlice, gSlice, gwSlice, l.ConvP, &e.scratch)
		gbSlice := tensor.FromSlice(e.GradB[idx].Data[gi*coutG:(gi+1)*coutG], coutG)
		tensor.Conv2DBiasGradient(gSlice, gbSlice)
		giSlice := channelSlice(gin, gi*cinG, cinG)
		tensor.Conv2DBackwardDataInto(giSlice, gSlice, wSlice, l.ConvP, in.Shape[1], in.Shape[2])
	}
	_ = oh
	_ = ow
	accumGrad(grads, l.Inputs[0], gin)
}

// concatForward concatenates input activations channel-wise.
func (e *Executor) concatForward(l *Layer) *tensor.Tensor {
	out := tensor.New(l.Out.C, l.Out.H, l.Out.W)
	off := 0
	for _, src := range l.Inputs {
		s := e.Acts[src]
		copy(out.Data[off:], s.Data)
		off += s.Len()
	}
	return out
}

// channelSlice views channels [from, from+n) of a (C,H,W) tensor. The slice
// aliases the parent's data (channels are contiguous in row-major order).
func channelSlice(t *tensor.Tensor, from, n int) *tensor.Tensor {
	h, w := t.Shape[1], t.Shape[2]
	return tensor.FromSlice(t.Data[from*h*w:(from+n)*h*w], n, h, w)
}

// weightSlice views output-channel rows [from, from+n) of a 4D weight bank.
func weightSlice(t *tensor.Tensor, from, n int) *tensor.Tensor {
	per := t.Shape[1] * t.Shape[2] * t.Shape[3]
	return tensor.FromSlice(t.Data[from*per:(from+n)*per], n, t.Shape[1], t.Shape[2], t.Shape[3])
}
