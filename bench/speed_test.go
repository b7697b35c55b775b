package main

import (
	"math"
	"testing"
	"time"
)

// TestSpeedProbe: the probe has a sample as soon as it starts, keeps
// sampling until closed, and an interval without samples falls back to all
// of them rather than to no speed at all.
func TestSpeedProbe(t *testing.T) {
	p := startSpeedProbe()
	start := time.Now()
	time.Sleep(5 * probePeriod)
	p.close()
	end := time.Now()
	p.mu.Lock()
	n := len(p.samples)
	p.mu.Unlock()
	if n < 2 {
		t.Fatalf("%d samples in %v, want several", n, 5*probePeriod)
	}
	for _, s := range p.samples {
		if s.us <= 0 {
			t.Fatalf("sample of %v µs", s.us)
		}
	}
	if m := p.median(start, end); m <= 0 {
		t.Errorf("median %v µs", m)
	}
	if s := p.stolen(start, end); s < 0 || s >= 1 {
		t.Errorf("stolen share %v", s)
	}
	later := end.Add(time.Hour)
	whole := probeRefUS / p.median(time.Time{}, later) * (1 - p.stolen(time.Time{}, later))
	if got := p.speed(later, later.Add(time.Second)); got != whole {
		t.Errorf("speed of an empty interval %v, want the whole run's %v", got, whole)
	}
}

// TestStolen: the stolen share is the steal counter's growth over the busy
// counter's between an interval's first and last samples.
func TestStolen(t *testing.T) {
	t0 := time.Now()
	p := &speedProbe{samples: []probeSample{
		{at: t0, us: 300, busy: 1000, steal: 10},
		{at: t0.Add(time.Second), us: 300, busy: 1100, steal: 20},
		{at: t0.Add(2 * time.Second), us: 300, busy: 1300, steal: 70},
	}}
	if got := p.stolen(t0, t0.Add(3*time.Second)); got != 0.2 {
		t.Errorf("stolen over all samples %v, want 60/300 = 0.2", got)
	}
	if got := p.stolen(t0.Add(time.Second), t0.Add(3*time.Second)); got != 0.25 {
		t.Errorf("stolen over the last two samples %v, want 50/200 = 0.25", got)
	}
	if got := p.stolen(t0, t0.Add(time.Millisecond)); got != 0 {
		t.Errorf("stolen over one sample %v, want 0", got)
	}
	if got, want := p.speed(t0, t0.Add(3*time.Second)), probeRefUS/300*0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("speed %v, want %v", got, want)
	}
}

func TestParseCPUStat(t *testing.T) {
	stat := []byte("cpu  3037438 13092 439779 3019379 7046 0 43826 91537 0 0\ncpu0 1516059 6520 22027 1 2 3 4 5 0 0\n")
	busy, steal := parseCPUStat(stat)
	if want := int64(3037438 + 13092 + 439779 + 0 + 43826 + 91537); busy != want || steal != 91537 {
		t.Errorf("busy %d steal %d, want %d and 91537", busy, steal, want)
	}
	for _, short := range []string{"", "cpu  1 2 3 4 5 6 7\ncpu0 1 2 3 4 5 6 7 8\n", "cpu  1 2 3"} {
		if busy, steal := parseCPUStat([]byte(short)); busy != 0 || steal != 0 {
			t.Errorf("%q: busy %d steal %d, want zeros", short, busy, steal)
		}
	}
}
