package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"scaledeep/internal/predict"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

// CSV column positions of a result row (sweep.WriteCSV).
const (
	colCycles       = 5
	colInstructions = 6
	colFLOPs        = 7
	colChecksum     = 13
	colAttr         = 14 // five stall-attribution columns
	colSource       = 19
	numCols         = 20
)

const csvHeaderPrefix = "workload,arch,minibatch,mode,iters,"

// outputs checks result bodies as they arrive: identical specs must return
// byte-identical bodies, and every row for one cell must be identical
// whichever job returned it. The first row seen per cell is kept for the
// checks that run after the window.
type outputs struct {
	mu     sync.Mutex
	bodies map[string][sha256.Size]byte // spec → body digest
	rows   map[string]string            // cell row key → row
	wrong  []string
}

func newOutputs() *outputs {
	return &outputs{bodies: map[string][sha256.Size]byte{}, rows: map[string]string{}}
}

// add checks one job's result body and reports whether it was right.
func (o *outputs) add(j *job, body []byte) bool {
	sum := sha256.Sum256(body)
	o.mu.Lock()
	defer o.mu.Unlock()
	if prev, ok := o.bodies[string(j.body)]; ok {
		if prev != sum {
			return o.fail("spec %s: result body differs from an earlier identical job's", j.body)
		}
		return true // its rows were checked the first time
	}
	o.bodies[string(j.body)] = sum
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], csvHeaderPrefix) {
		return o.fail("spec %s: result is not a CSV table", j.body)
	}
	if len(lines)-1 != len(j.cells) {
		return o.fail("spec %s: %d rows for %d cells", j.body, len(lines)-1, len(j.cells))
	}
	for _, row := range lines[1:] {
		f := strings.Split(row, ",")
		if len(f) != numCols {
			return o.fail("spec %s: row %q has %d columns", j.body, row, len(f))
		}
		key := strings.Join(f[:5], ",")
		if prev, ok := o.rows[key]; ok && prev != row {
			return o.fail("cell %s: row %q differs from an earlier %q", key, row, prev)
		}
		o.rows[key] = row
	}
	return true
}

// fail records a wrong output. Callers hold o.mu.
func (o *outputs) fail(format string, args ...any) bool {
	o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	return false
}

func (o *outputs) failf(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fail(format, args...)
}

// row returns the kept row for a cell, split into columns.
func (o *outputs) row(c cell) ([]string, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	row, ok := o.rows[c.rowKey()]
	if !ok {
		return nil, false
	}
	return strings.Split(row, ","), true
}

// checkSources checks every row's source label: with a predictor, a cell
// the model is confident about must come back predicted with the model's
// cycle count, and every other cell exact; without one, every row is
// exact. It returns the share of the workload's cells answered predicted.
func (o *outputs) checkSources(cells []cell, model *predict.Model) (hitShare float64, err error) {
	var predicted int
	for _, c := range cells {
		f, ok := o.row(c)
		if !ok {
			continue
		}
		want := sweep.SourceExact
		var cycles int64
		if model != nil {
			p, ok, err := predicts(model, c)
			if err != nil {
				return 0, err
			}
			if ok {
				want, cycles = sweep.SourcePredicted, p.Cycles
			}
		}
		switch {
		case f[colSource] != want:
			o.failf("cell %s: source %s, want %s", c.rowKey(), f[colSource], want)
		case want == sweep.SourcePredicted && f[colCycles] != strconv.FormatInt(cycles, 10):
			o.failf("cell %s: predicted %s cycles, model says %d", c.rowKey(), f[colCycles], cycles)
		}
		if f[colSource] == sweep.SourcePredicted {
			predicted++
		}
	}
	return ratio(float64(predicted), float64(len(cells))), nil
}

// predicts reports whether the model answers a cell from the fast path.
func predicts(model *predict.Model, c cell) (sweep.CellPrediction, bool, error) {
	net, chip, prec, err := cellArch(c)
	if err != nil {
		return sweep.CellPrediction{}, false, err
	}
	p, ok := model.PredictCell(net, chip, prec, c.MB, c.Mode, c.iters())
	return p, ok, nil
}

// reference is a cell with the row an in-process simulation gave it.
type reference struct {
	cell cell
	row  string
}

// references simulates n cells in process — sweep.RunGrid with no store,
// rendered by sweep.WriteCSV — for the output check: the first n of the
// workload's fixed sample that the model (if any) sends to the exact path.
// A fixed sample keeps set-up's work the same on every seed.
func references(ctx context.Context, w *workload, model *predict.Model, n int) ([]reference, error) {
	var cells []cell
	for _, c := range sample(w) {
		if len(cells) == n {
			break
		}
		if model != nil {
			_, ok, err := predicts(model, c)
			if err != nil {
				return nil, err
			}
			if ok {
				continue
			}
		}
		cells = append(cells, c)
	}
	return sweep.Map(ctx, cells, sweep.Options{}, func(ctx context.Context, _ int, c cell, _ *telemetry.Registry) (reference, error) {
		results, err := sweep.RunGrid(ctx, c.grid(), sweep.Options{Workers: 1})
		if err != nil {
			return reference{}, fmt.Errorf("simulate %s: %w", c.rowKey(), err)
		}
		var buf strings.Builder
		if err := sweep.WriteCSV(&buf, results); err != nil {
			return reference{}, err
		}
		return reference{c, strings.Split(buf.String(), "\n")[1]}, nil
	})
}

// compare checks the server's row for every reference cell.
func (o *outputs) compare(refs []reference) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range refs {
		if got, ok := o.rows[r.cell.rowKey()]; !ok {
			o.fail("cell %s: the server never answered this reference cell", r.cell.rowKey())
		} else if got != r.row {
			o.fail("cell %s: server row %q, in-process simulation %q", r.cell.rowKey(), got, r.row)
		}
	}
}
