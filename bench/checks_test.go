package main

import (
	"strings"
	"testing"
)

func TestOutputsFlagInconsistentResults(t *testing.T) {
	header := "workload,arch,minibatch,mode,iters,cycles,instructions,flops,pe_util,comp_mem_bytes,mem_mem_bytes,ext_mem_bytes,nacks,checksum,attr_compute,attr_dma_wait,attr_tracker,attr_link,attr_other,source\n"
	row := func(cycles string) string {
		return "simnet,baseline,1,eval,1," + cycles + ",2,3,0.5,4,5,6,7,0.25,8,9,10,11,12,exact\n"
	}
	a := &job{body: []byte(`{"a":1}`), cells: make([]cell, 1)}
	b := &job{body: []byte(`{"b":1}`), cells: make([]cell, 1)}
	o := newOutputs()
	if !o.add(a, []byte(header+row("100"))) || !o.add(a, []byte(header+row("100"))) {
		t.Fatalf("identical results flagged: %v", o.wrong)
	}
	for _, c := range []struct {
		name string
		job  *job
		body string
	}{
		{"same spec, other body", a, header + row("101")},
		{"other spec, same cell, other row", b, header + row("102")},
		{"row count differs from the job's cells", b, header + row("100") + row("100")},
		{"not a CSV table", b, `{"error":"x"}`},
	} {
		before := len(o.wrong)
		if o.add(c.job, []byte(c.body)) || len(o.wrong) != before+1 {
			t.Errorf("%s: not flagged", c.name)
		}
	}
	if !strings.Contains(strings.Join(o.wrong, "\n"), "differs") {
		t.Errorf("messages %q do not say what differed", o.wrong)
	}
}
