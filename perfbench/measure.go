package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart is read during package initialisation, before main runs:
// the origin of every workload's setup_s.
var processStart = time.Now()

// reservoir keeps a uniform sample of at most cap(vs) values (Algorithm
// R) in storage allocated up front, so recording a latency inside the
// measured window allocates nothing.
type reservoir struct {
	vs  []float64
	n   int64
	rng uint64
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{vs: make([]float64, 0, capacity), rng: uint64(seed)*0x9E3779B97F4A7C15 | 1}
}

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.vs) < cap(r.vs) {
		r.vs = append(r.vs, v)
		return
	}
	// xorshift64* draw in [0, n).
	r.rng ^= r.rng >> 12
	r.rng ^= r.rng << 25
	r.rng ^= r.rng >> 27
	if j := (r.rng * 2685821657736338717) % uint64(r.n); j < uint64(len(r.vs)) {
		r.vs[j] = v
	}
}

// percentile returns the q-quantile of vs (linear interpolation between
// order statistics). It refuses a quantile with fewer than ten samples
// beyond it: such a "tail" is a handful of values, not a percentile.
func percentile(vs []float64, q float64) (float64, error) {
	n := len(vs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if beyond := float64(n) * (1 - q); beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need 10", q*100, n, beyond)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median of a small set of batch timings (no tail rule: a median needs
// no samples beyond it).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perOp divides a window total by the operations completed in it.
func perOp(total float64, ops int64) (float64, error) {
	if ops <= 0 {
		return 0, fmt.Errorf("no operations completed in the measured window")
	}
	return total / float64(ops), nil
}

// snapshot is the process state at one edge of a measured window.
type snapshot struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:      time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// window is one measured interval: its two edge snapshots and the
// operations completed between them.
type window struct {
	s0, s1 snapshot
	ops    int64
}

func (w window) seconds() float64 { return w.s1.at.Sub(w.s0.at).Seconds() }

func (w window) opsPerSec() float64 { return float64(w.ops) / w.seconds() }

// runtimeLayer fills the go.* per-layer metrics from a window.
func (w window) runtimeLayer(m metricSet, goroutinesPeak int) {
	gcs, err := perOp(float64(w.s1.numGC-w.s0.numGC), w.ops)
	if err == nil {
		m.set("go.gc_cycles_per_kop", 1000*gcs)
	}
	m.set("go.gc_pause_ms", float64(w.s1.pauseNs-w.s0.pauseNs)/1e6)
	m.set("go.goroutines_peak", float64(goroutinesPeak))
}

// goroutineSampler tracks the peak goroutine count while it runs.
type goroutineSampler struct {
	stop chan struct{}
	done chan int
}

func startGoroutineSampler() *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{}), done: make(chan int)}
	go func() {
		peak := runtime.NumGoroutine()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				g.done <- peak
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
	}()
	return g
}

// finish stops the sampler and returns the peak it saw.
func (g *goroutineSampler) finish() int {
	close(g.stop)
	return <-g.done
}
