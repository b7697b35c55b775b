package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"time"

	"scaledeep/internal/arch"
	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/predict"
	"scaledeep/internal/sim"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
	"scaledeep/internal/tensor"
)

// The probes time calls into each layer's public functions after the
// measured window, never during it.

func cellArch(c cell) (*dnn.Network, arch.ChipConfig, arch.Precision, error) {
	net, err := sweep.BuildWorkload(c.Workload)
	if err != nil {
		return nil, arch.ChipConfig{}, 0, err
	}
	chip, prec, err := sweep.ArchFor(c.Arch)
	return net, chip, prec, err
}

// sample is the workload's cells in a fixed random order, drawn with a
// seed derived from the workload's name, so that every run of a workload
// checks and probes the same cells: the reference cells are its first
// exact cells, the compiler and simulator probes replay its first
// probeCells.
func sample(w *workload) []cell {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	cells := w.cells()
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	order := make([]cell, len(cells))
	for i, j := range rng.Perm(len(cells)) {
		order[i] = cells[j]
	}
	return order
}

// phaseSink collects the compiler's map/bind/emit/finalize phase spans.
type phaseSink []telemetry.Span

func (s *phaseSink) RecordSpan(sp telemetry.Span) { *s = append(*s, sp) }

// cellProbe is one cell's public-call replay.
type cellProbe struct {
	compile, newMachine, reset         time.Duration
	install, load, runFresh, runReused time.Duration
	phases                             map[string]time.Duration
	staticInstructions                 int64
	cycles, instructions               int64
	checksum                           float32
}

// probeCell replays sweep.runJob's sequence of public calls for one cell —
// compile, new machine, install, load weights and inputs, run — then
// resets the machine and runs the same program again, as a pooled machine
// would.
func probeCell(c cell, spans *spanLog) (cellProbe, error) {
	var p cellProbe
	net, chip, prec, err := cellArch(c)
	if err != nil {
		return p, err
	}
	train := c.Mode == "train"
	var sink phaseSink
	t := time.Now()
	comp, err := compiler.Compile(net, chip, compiler.Options{
		Minibatch: c.MB, Iterations: c.iters(), Training: train, LR: 0.0625, Spans: &sink,
	})
	p.compile = spans.since("compiler", "compile "+c.rowKey(), t)
	if err != nil {
		return p, fmt.Errorf("compile %s: %w", c.rowKey(), err)
	}
	p.staticInstructions = int64(comp.TotalInstructions())
	p.phases = map[string]time.Duration{}
	for _, s := range sink {
		p.phases[s.Name] += time.Duration(s.Dur) * time.Microsecond
	}

	t = time.Now()
	m := sim.NewMachine(chip, prec, true)
	p.newMachine = spans.since("sim", "new machine", t)
	runOnce := func() (sim.Stats, time.Duration, time.Duration, time.Duration, error) {
		m.SetMetrics(telemetry.NewRegistry())
		t := time.Now()
		if err := comp.Install(m); err != nil {
			return sim.Stats{}, 0, 0, 0, err
		}
		install := spans.since("sim", "install", t)
		t = time.Now()
		if err := loadCell(comp, m, net, c.MB, train); err != nil {
			return sim.Stats{}, 0, 0, 0, err
		}
		load := spans.since("sim", "load", t)
		t = time.Now()
		st, err := m.Run()
		return st, install, load, spans.since("sim", "run "+c.rowKey(), t), err
	}
	st, install, load, run, err := runOnce()
	if err != nil {
		return p, fmt.Errorf("simulate %s: %w", c.rowKey(), err)
	}
	p.install, p.load, p.runFresh = install, load, run
	p.cycles, p.instructions = int64(st.Cycles), st.Instructions
	for _, v := range comp.ReadOutput(m, c.MB-1) {
		p.checksum += v
	}

	t = time.Now()
	m.Reset()
	p.reset = spans.since("sim", "reset", t)
	again, _, _, run, err := runOnce()
	if err != nil {
		return p, fmt.Errorf("re-simulate %s: %w", c.rowKey(), err)
	}
	if again.Cycles != st.Cycles || again.Instructions != st.Instructions {
		return p, fmt.Errorf("%s: reused machine ran %d cycles, fresh %d", c.rowKey(), again.Cycles, st.Cycles)
	}
	p.runReused = run
	return p, nil
}

// loadCell loads weights, inputs and (training) golden outputs exactly as
// sweep.runJob does: executor seed 1 with biases frozen, then inputs and
// goldens from PRNG seed 7.
func loadCell(comp *compiler.Compiled, m *sim.Machine, net *dnn.Network, mb int, train bool) error {
	e := dnn.NewExecutor(net, 1)
	e.NoBias = true
	if err := comp.LoadWeights(m, e); err != nil {
		return err
	}
	in := net.Layers[0].Out
	outElems := net.OutputLayer().Out.Elems()
	rng := tensor.NewRNG(7)
	inputs := make([]*tensor.Tensor, mb)
	golden := make([]*tensor.Tensor, mb)
	for i := range inputs {
		inputs[i] = tensor.New(in.C, in.H, in.W)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(outElems)
		rng.FillUniform(golden[i], 1)
	}
	if err := comp.LoadInputs(m, inputs); err != nil {
		return err
	}
	if train {
		return comp.LoadGolden(m, golden)
	}
	return nil
}

// probeCells runs the compiler and simulator probes over the sample,
// checks each cell's cycles, instructions and checksum against the
// server's exact row when there is one, and fills the compiler and sim
// metrics.
func probeCells(sample []cell, o *outputs, spans *spanLog, m map[string]float64) error {
	var compile, newMachine, reset, install, load, fresh, reused []float64
	phases := map[string][]float64{}
	var static, cycles, instrs int64
	var reusedNs float64
	for _, c := range sample {
		p, err := probeCell(c, spans)
		if err != nil {
			return err
		}
		compile = append(compile, ms(p.compile))
		newMachine = append(newMachine, ms(p.newMachine))
		reset = append(reset, ms(p.reset))
		install = append(install, ms(p.install))
		load = append(load, ms(p.load))
		fresh = append(fresh, ms(p.runFresh))
		reused = append(reused, ms(p.runReused))
		for _, ph := range []string{"map", "bind", "emit", "finalize"} {
			phases[ph] = append(phases[ph], ms(p.phases[ph]))
		}
		static += p.staticInstructions
		cycles += p.cycles
		instrs += p.instructions
		reusedNs += float64(p.runReused)
		if f, ok := o.row(c); ok && f[colSource] == sweep.SourceExact {
			want := []string{
				strconv.FormatInt(p.cycles, 10), strconv.FormatInt(p.instructions, 10),
				strconv.FormatFloat(float64(p.checksum), 'g', -1, 32),
			}
			got := []string{f[colCycles], f[colInstructions], f[colChecksum]}
			if want[0] != got[0] || want[1] != got[1] || want[2] != got[2] {
				o.failf("cell %s: probe cycles/instructions/checksum %v, server row %v", c.rowKey(), want, got)
			}
		}
	}
	m["compiler.compile_p50_ms"] = quantile(compile, 0.5)
	m["compiler.compile_p90_ms"] = quantile(compile, 0.9)
	for _, ph := range []string{"map", "bind", "emit", "finalize"} {
		m["compiler."+ph+"_ms"] = mean(phases[ph])
	}
	m["compiler.instructions"] = float64(static)
	m["sim.new_machine_ms"] = mean(newMachine)
	m["sim.reset_ms"] = mean(reset)
	m["sim.install_ms"] = mean(install)
	m["sim.load_ms"] = mean(load)
	m["sim.run_fresh_ms"] = mean(fresh)
	m["sim.run_reused_ms"] = mean(reused)
	m["sim.ns_per_instr"] = ratio(reusedNs, float64(instrs))
	m["sim.cycles_total"] = float64(cycles)
	m["sim.instructions_total"] = float64(instrs)
	return nil
}

// probeStore times the store's public calls on the set-up daemon's store
// once the daemons are closed: Open (median of five), Get of every blob on
// a freshly opened store (disk tier) and again (memory tier), and Put of
// every blob into an empty store. Put rewrites the index on each call, so
// the first and last 32 Puts show how its cost grows with the store.
func probeStore(dir, scratch string, spans *spanLog, m map[string]float64) error {
	var opens []float64
	var st *store.Store
	for i := 0; i < 5; i++ {
		t := time.Now()
		s, err := store.Open(dir, store.Options{})
		opens = append(opens, ms(spans.since("store", "open", t)))
		if err != nil {
			return err
		}
		st = s
	}
	keys := st.Keys()
	payloads := make([][]byte, len(keys))
	var disk, mem []float64
	for i, k := range keys {
		t := time.Now()
		p, ok, err := st.Get(k)
		disk = append(disk, us(spans.since("store", "get disk", t)))
		if err != nil || !ok {
			return fmt.Errorf("store probe: get %s: ok=%v err=%v", k, ok, err)
		}
		payloads[i] = p
	}
	for _, k := range keys {
		t := time.Now()
		_, ok, err := st.Get(k)
		mem = append(mem, us(spans.since("store", "get mem", t)))
		if err != nil || !ok {
			return fmt.Errorf("store probe: get %s: ok=%v err=%v", k, ok, err)
		}
	}
	fresh, err := store.Open(scratch, store.Options{})
	if err != nil {
		return err
	}
	var puts []float64
	for i, k := range keys {
		t := time.Now()
		err := fresh.Put(k, payloads[i])
		puts = append(puts, us(spans.since("store", "put", t)))
		if err != nil {
			return err
		}
	}
	if err := fresh.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(scratch); err != nil {
		return err
	}
	n := min(32, len(puts))
	m["store.open_ms"] = quantile(opens, 0.5)
	m["store.get_disk_us"] = quantile(disk, 0.5)
	m["store.get_mem_us"] = quantile(mem, 0.5)
	m["store.put_first_us"] = quantile(puts[:n], 0.5)
	m["store.put_last_us"] = quantile(puts[len(puts)-n:], 0.5)
	m["store.blobs"] = float64(len(keys))
	return nil
}

// probePredict times Model.PredictCell over every cell of the workload and
// reports the set-up fit time. Only predict-sweep has a model; the other
// workloads bypass the predictor and read zero.
func probePredict(cells []cell, model *predict.Model, fit time.Duration, spans *spanLog, m map[string]float64) error {
	m["predict.fit_s"], m["predict.cell_us"] = 0, 0
	if model == nil {
		return nil
	}
	var calls []float64
	for _, c := range cells {
		net, chip, prec, err := cellArch(c)
		if err != nil {
			return err
		}
		t := time.Now()
		model.PredictCell(net, chip, prec, c.MB, c.Mode, c.iters())
		calls = append(calls, us(spans.since("predict", "predict cell", t)))
	}
	m["predict.fit_s"] = fit.Seconds()
	m["predict.cell_us"] = mean(calls)
	return nil
}

// probeAll runs every post-window probe of a traced run.
func probeAll(h *harness, m map[string]float64) error {
	cells := sample(h.w)
	if err := probeCells(cells[:min(h.cfg.probeCells, len(cells))], h.out, h.spans, m); err != nil {
		return err
	}
	if err := probeStore(h.firstDir, h.newDirName(), h.spans, m); err != nil {
		return err
	}
	return probePredict(h.w.cells(), h.model, h.fit, h.spans, m)
}
