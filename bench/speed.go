package main

import (
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared virtual machines, whose cores change speed
// over minutes as other tenants come and go, and whose host takes back
// part of the CPUs' time: on the 2-vCPU machine the baseline was taken on,
// the same work ran up to 50% slower in some phases than in others, and
// every timing moved with it. A probe thread therefore times a fixed piece
// of work and reads the stolen time through every run, and each end-to-end
// timing is scaled to what it would read on a machine where the probe's
// median sample takes probeRefUS and nothing is stolen. Only the machine's
// speed cancels out: the probe runs no code of the repository, so a change
// to the program moves the scaled metrics as much as the raw ones.
const (
	probePeriod = 20 * time.Millisecond
	// probeRefUS is the reference machine's median probe sample, close to
	// the median on the machine the baseline in README.md was taken on, so
	// that scaled values read about as raw ones did there.
	probeRefUS = 330.0
)

// speedProbe runs probeWork every probePeriod on its own locked OS thread
// and records each sample's length in the thread's CPU time, so that time
// spent waiting for a CPU while the service keeps both busy does not count,
// while a slower core, cache or page-fault path does. Thread CPU time also
// leaves out the time the host stole from the virtual CPUs, which stretches
// every wall-clock timing of the service, so with each sample the probe
// reads the kernel's CPU time counters as well.
type speedProbe struct {
	work *probeWork
	stat *cpuStat
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []probeSample
}

type probeSample struct {
	at time.Time
	us float64
	// busy and steal are the counters of /proc/stat at the sample, summed
	// over every CPU: time the CPUs ran or wanted to run, and the part of it
	// the host ran something else.
	busy, steal int64
}

// startSpeedProbe starts the probe and returns once it has taken its first
// sample, so that every interval after the call has one to measure by.
func startSpeedProbe() *speedProbe {
	p := &speedProbe{work: newProbeWork(), stat: openCPUStat(), stop: make(chan struct{}), done: make(chan struct{})}
	first := make(chan struct{})
	go p.loop(first)
	<-first
	return p
}

func (p *speedProbe) loop(first chan struct{}) {
	defer close(p.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	for {
		at := time.Now()
		t := threadCPU()
		p.work.run()
		us := float64(threadCPU()-t) / float64(time.Microsecond)
		busy, steal := p.stat.read()
		p.mu.Lock()
		p.samples = append(p.samples, probeSample{at, us, busy, steal})
		p.mu.Unlock()
		if first != nil {
			close(first)
			first = nil
		}
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

// close stops the probe and waits for its thread to finish.
func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
	p.stat.close()
}

// in returns the samples taken in [from, to), or every sample when none
// fell in that interval.
func (p *speedProbe) in(from, to time.Time) []probeSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	var in []probeSample
	for _, s := range p.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			in = append(in, s)
		}
	}
	if len(in) == 0 {
		return append(in, p.samples...)
	}
	return in
}

// median returns the median sample (µs) in [from, to).
func (p *speedProbe) median(from, to time.Time) float64 {
	var us []float64
	for _, s := range p.in(from, to) {
		us = append(us, s.us)
	}
	return quantile(us, 0.5)
}

// stolen is the share of the CPUs' busy time in [from, to) that the host
// took for something else, or 0 when the interval holds fewer than two
// samples or the counters cannot be read.
func (p *speedProbe) stolen(from, to time.Time) float64 {
	in := p.in(from, to)
	first, last := in[0], in[len(in)-1]
	return ratio(float64(last.steal-first.steal), float64(last.busy-first.busy))
}

// speed is how fast the machine ran in [from, to) relative to the
// reference machine: a time measured then, multiplied by speed, is what it
// would have read on the reference machine, and a rate divided by it. A
// core that runs the probe slower and a host that steals more of the CPUs'
// busy time both lower it.
func (p *speedProbe) speed(from, to time.Time) float64 {
	return probeRefUS / p.median(from, to) * (1 - p.stolen(from, to))
}

// cpuStat reads the machine-wide CPU time counters of /proc/stat without
// allocating. A nil cpuStat, on a system without the file, reads zeros.
type cpuStat struct {
	f   *os.File
	buf []byte
}

func openCPUStat() *cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	return &cpuStat{f: f, buf: make([]byte, 256)}
}

func (c *cpuStat) close() {
	if c != nil {
		c.f.Close()
	}
}

// read returns the busy and stolen time of every CPU together, in clock
// ticks.
func (c *cpuStat) read() (busy, steal int64) {
	if c == nil {
		return 0, 0
	}
	n, _ := c.f.ReadAt(c.buf, 0) // a failed or short read parses as zeros
	return parseCPUStat(c.buf[:n])
}

// parseCPUStat reads the first line of /proc/stat, "cpu  user nice system
// idle iowait irq softirq steal ...": busy is every field up to steal but
// idle and iowait. A line cut short reads zeros.
func parseCPUStat(stat []byte) (busy, steal int64) {
	field, v, inNum := 0, int64(0), false
	for _, b := range stat {
		if b >= '0' && b <= '9' {
			v, inNum = v*10+int64(b-'0'), true
			continue
		}
		if inNum {
			field++
			if field != 4 && field != 5 { // idle, iowait
				busy += v
			}
			if field == 8 {
				return busy, v
			}
			v, inNum = 0, false
		}
		if b == '\n' {
			break
		}
	}
	return 0, 0
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeWork is one probe sample's work, built only from the standard
// library and allocating nothing on the Go heap, so that the service's
// garbage collection does not land in it. Its parts stand for the kinds of
// work the service does: a sort and a floating-point loop that stay in the
// L1 cache (the simulator's inner loops), a pointer chase through 16 MiB
// (memory latency), faulting in fresh pages (what a new simulator machine
// pays for its scratchpads) and map lookups with string keys (hashing, as
// in store keys and JSON decoding). Each alone tracked some workloads'
// drift better than the others; their sum tracked all four best.
type probeWork struct {
	ints, scratch []int
	ring          []uint32
	pos           uint32
	keys          []string
	index         map[string]int
	sink          float64
}

const (
	probeSortLen  = 512
	probeRingLen  = 4 << 20 // uint32s: 16 MiB, beyond the per-core L2
	probeSteps    = 300     // pointer-chase steps per sample
	probePages    = 16      // pages faulted in per sample
	probeKeys     = 4096
	probeLookups  = 300
	probeFloatOps = 10000
)

func newProbeWork() *probeWork {
	rng := rand.New(rand.NewSource(1))
	w := &probeWork{
		ints: make([]int, probeSortLen), scratch: make([]int, probeSortLen),
		ring: make([]uint32, probeRingLen), index: make(map[string]int, probeKeys),
	}
	for i := range w.ints {
		w.ints[i] = rng.Int()
	}
	// One random cycle through the whole ring, so the chase never settles
	// into a cached loop.
	perm := rng.Perm(probeRingLen)
	for i, at := range perm {
		w.ring[at] = uint32(perm[(i+1)%len(perm)])
	}
	for i := 0; i < probeKeys; i++ {
		k := "cell/" + strconv.Itoa(rng.Int())
		w.keys = append(w.keys, k)
		w.index[k] = i
	}
	return w
}

func (w *probeWork) run() {
	copy(w.scratch, w.ints)
	slices.Sort(w.scratch)
	f := 1.0
	for i := 0; i < probeFloatOps; i++ {
		f = f*1.0000001 + 1e-9*float64(i&7)
	}
	x := w.pos
	for i := 0; i < probeSteps; i++ {
		x = w.ring[x]
	}
	w.pos = x
	page := syscall.Getpagesize()
	if mem, err := syscall.Mmap(-1, 0, probePages*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		for i := 0; i < len(mem); i += page {
			mem[i] = 1
		}
		syscall.Munmap(mem)
	}
	sum := 0
	for i := 0; i < probeLookups; i++ {
		sum += w.index[w.keys[(i*7919)%probeKeys]]
	}
	w.sink += f + float64(sum)
}
