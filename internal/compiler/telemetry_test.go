package compiler

import (
	"testing"

	"scaledeep/internal/telemetry"
)

func TestCompilePhaseSpans(t *testing.T) {
	tr := telemetry.NewJobTrace("run", 0, nil)
	opts := Options{Minibatch: 1, Iterations: 1, Training: true, LR: 0.03125, Spans: tr.Context(0, "")}
	if _, err := Compile(convPoolFCNet(), testChip(8), opts); err != nil {
		t.Fatal(err)
	}

	got := map[string]int{}
	for _, s := range tr.Assemble() {
		if s.Track != "compiler" {
			t.Fatalf("span on track %q, want compiler: %+v", s.Track, s)
		}
		if s.Start < 0 || s.Dur < 0 {
			t.Fatalf("degenerate span: %+v", s)
		}
		got[s.Name]++
	}
	for _, want := range []string{"map", "bind", "emit", "finalize"} {
		if got[want] == 0 {
			t.Errorf("missing %q phase span (have %v)", want, got)
		}
	}
}

func TestCompileNilSinkUnchanged(t *testing.T) {
	opts := Options{Minibatch: 1, Iterations: 1, Training: false}
	a, err := Compile(convPoolFCNet(), testChip(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Spans = telemetry.NewJobTrace("run", 0, nil).Context(0, "")
	b, err := Compile(convPoolFCNet(), testChip(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalInstructions() != b.TotalInstructions() {
		t.Fatalf("telemetry changed codegen: %d vs %d instructions",
			a.TotalInstructions(), b.TotalInstructions())
	}
}
