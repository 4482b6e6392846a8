package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Phases of a wire workload's closed loop. The measured window is cut
// into slices; slice i runs in phase phaseMeasure+i.
const (
	phaseWarm int32 = iota
	phaseTraced
	phaseStop
	phaseMeasure
)

// slices is the number of equal slices of the measured window. Rates,
// CPU per operation and tail latency are reported as the median over
// slices, so a disturbance from outside the process that hits one slice
// moves the result by one rank, not by its size.
const slices = 10

// measuring reports whether phase p is a measured slice, and which.
func measuring(p int32) (int, bool) { return int(p - phaseMeasure), p >= phaseMeasure }

// tracedHooks run at the edges of a traced run's traced half.
type tracedHooks struct{ start, end func() }

// windows drives the phases: warm-up, then the measured window in
// slices. In the traced run the measured window is half the run and the
// traced half follows it. It returns the slices and the traced window.
func windows(cfg runConfig, phase *atomic.Int32, ops func() int64, hooks tracedHooks) ([]window, window) {
	time.Sleep(cfg.warm)
	mark := func() (snapshot, int64) { s := takeSnapshot(); return s, ops() }
	d := cfg.seconds
	if cfg.rec != nil {
		d /= 2
	}
	plain := make([]window, slices)
	s, o := mark()
	for i := range plain {
		phase.Store(phaseMeasure + int32(i))
		time.Sleep(d / slices)
		s1, o1 := mark()
		plain[i] = window{s, s1, o1 - o}
		s, o = s1, o1
	}
	if cfg.rec == nil {
		phase.Store(phaseStop)
		return plain, window{}
	}
	hooks.start()
	phase.Store(phaseTraced)
	time.Sleep(d)
	s2, o2 := mark()
	phase.Store(phaseStop)
	hooks.end()
	return plain, window{s, s2, o2 - o}
}

// span is the window covering consecutive windows ws.
func span(ws []window) window {
	w := window{s0: ws[0].s0, s1: ws[len(ws)-1].s1}
	for _, x := range ws {
		w.ops += x.ops
	}
	return w
}

// sliceCosts sets ops_per_s and cpu_us_per_op to their medians over the
// slices, and the allocation metrics to totals over the whole window
// (allocation counts do not depend on what else the machine runs).
func sliceCosts(m metricSet, ws []window) error {
	rates := make([]float64, 0, len(ws))
	cpus := make([]float64, 0, len(ws))
	for _, w := range ws {
		cpu, err := perOp(float64(w.s1.cpu-w.s0.cpu)/float64(time.Microsecond), w.ops)
		if err != nil {
			return err
		}
		rates = append(rates, w.opsPerSec())
		cpus = append(cpus, cpu)
	}
	all := span(ws)
	allocs, _ := perOp(float64(all.s1.mallocs-all.s0.mallocs), all.ops)
	kb, _ := perOp(float64(all.s1.bytes-all.s0.bytes)/1024, all.ops)
	m.set("ops_per_s", median(rates))
	m.set("cpu_us_per_op", median(cpus))
	m.set("allocs_per_op", allocs)
	m.set("alloc_kb_per_op", kb)
	return nil
}

// slicedLatency keeps one latency reservoir per slice.
type slicedLatency [slices]*reservoir

func newSlicedLatency(seed int64) *slicedLatency {
	var s slicedLatency
	for i := range s {
		s[i] = newReservoir(1<<15, seed+int64(i)<<32)
	}
	return &s
}

func (s *slicedLatency) add(slice int, v float64) { s[slice].add(v) }

// report sets the median over all slices' samples and, when p99 is
// named, the median over pairs of consecutive slices of each pair's
// 99th percentile (a pair holds enough samples for a supported p99 on
// every workload).
func (s *slicedLatency) report(m metricSet, p50, p99 string) error {
	var all []float64
	for _, r := range s {
		all = append(all, r.vs...)
	}
	v, err := percentile(all, 0.50)
	if err != nil {
		return fmt.Errorf("%s: %w", p50, err)
	}
	m.set(p50, v)
	if p99 == "" {
		return nil
	}
	tails := make([]float64, 0, slices/2)
	for i := 0; i+1 < slices; i += 2 {
		v, err := percentile(append(append([]float64(nil), s[i].vs...), s[i+1].vs...), 0.99)
		if err != nil {
			return fmt.Errorf("%s, slices %d-%d: %w", p99, i, i+1, err)
		}
		tails = append(tails, v)
	}
	m.set(p99, median(tails))
	return nil
}
