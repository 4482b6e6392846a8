package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/giop"
	"repro/internal/trace/telemetry"
	"repro/internal/wire"
)

// counterTotal sums every labelled series of a counter family.
func counterTotal(reg *telemetry.Registry, name string) float64 {
	total := 0.0
	for _, key := range reg.CounterKeys() {
		if n, _ := telemetry.ParseKey(key); n == name {
			total += reg.CounterByKey(key).Value()
		}
	}
	return total
}

// queueMedianUs is the program's wire.server.queue_ms over the window
// since the previous call, as the sample-weighted mean of each lane's
// median, in microseconds.
func queueMedianUs(regs ...*telemetry.Registry) (float64, bool) {
	var sum float64
	var n int
	for _, reg := range regs {
		for _, key := range reg.HistogramKeys() {
			if name, _ := telemetry.ParseKey(key); name == "wire.server.queue_ms" {
				s := reg.HistogramByKey(key).TakeWindow()
				sum += s.P50 * 1000 * float64(s.N)
				n += s.N
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// qosserveLanes is qosserve's default lane layout.
func qosserveLanes() []wire.LaneConfig {
	return []wire.LaneConfig{
		{Priority: 0, Workers: 1, QueueLimit: 256},
		{Priority: wire.EFPriority, Workers: 2, QueueLimit: 256},
	}
}

const echoKey = "bench/echo"

// echoCaller is one closed-loop caller at a fixed priority.
type echoCaller struct {
	prio    int16
	lat     *slicedLatency // ms, measured window only
	ok      atomic.Int64
	failed  atomic.Int64
	fillers [][]byte
}

func echoShape() frameShape {
	return frameShape{
		name: "64 B echo request with priority, timestamp and deadline contexts",
		req: &giop.Request{
			RequestID: 7, ResponseExpected: true, ObjectKey: []byte(echoKey), Operation: "echo",
			ServiceContexts: []giop.ServiceContext{
				giop.PriorityContext(wire.EFPriority, 0),
				giop.TimestampContext(time.Now().UnixNano(), 0),
				giop.DeadlineContext(time.Now().Add(2*time.Second).UnixNano(), 0),
			},
			Body: make([]byte, echoBodySize),
		},
	}
}

// runEcho is the echo_small workload: one EF and one BE closed-loop
// caller with 64-byte bodies against a loopback server with qosserve's
// lanes and a zero-work echo servant.
func runEcho(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	var phase atomic.Int32
	var execs atomic.Int64
	rec := cfg.rec
	reg := telemetry.NewRegistry()
	srv, err := wire.NewServer(wire.ServerConfig{Lanes: qosserveLanes(), Registry: reg, Name: "perfbench.echo"})
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(time.Second)
	srv.Register(echoKey, wire.HandlerFunc(func(req *wire.Request) ([]byte, error) {
		if rec == nil || phase.Load() != phaseTraced {
			execs.Add(1)
			return req.Body, nil
		}
		start := time.Now()
		execs.Add(1)
		rec.child(callID(req.Body), "wire.servant", start, time.Now())
		return req.Body, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ccfg := wire.ClientConfig{Addr: addr.String(), Bands: []int16{0, wire.EFPriority}, Name: "perfbench.caller"}
	counters := &connCounters{}
	if rec != nil {
		ccfg.Dial = counters.dialer(addr.String())
	}
	cli, err := wire.NewClient(ccfg)
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	var ids atomic.Uint64
	callers := []*echoCaller{
		{prio: wire.EFPriority, fillers: fillers(cfg.seed, 64, echoBodySize-echoHeader)},
		{prio: 0, fillers: fillers(cfg.seed+1, 64, echoBodySize-echoHeader)},
	}
	// call makes one checked invocation; it returns false on a failed
	// check, which ends the caller.
	call := func(c *echoCaller, body []byte) bool {
		id := ids.Add(1)
		fillEchoBody(body, id, c.fillers[id%uint64(len(c.fillers))])
		p := phase.Load()
		start := time.Now()
		reply, err := cli.Invoke(echoKey, "echo", body, wire.CallOptions{Priority: c.prio})
		end := time.Now()
		if err != nil {
			c.failed.Add(1)
			return true
		}
		if err := checkEcho(body, reply); err != nil {
			out.problem("%v", err)
			return false
		}
		c.ok.Add(1)
		if slice, ok := measuring(p); ok {
			c.lat.add(slice, float64(end.Sub(start))/float64(time.Millisecond))
		} else if p == phaseTraced {
			rec.root(id, "wire.invoke", "wire.outside_servant", start, end)
		}
		return true
	}
	// Ready: the server listens and both bands have dialed.
	for _, c := range callers {
		body := make([]byte, echoBodySize)
		if !call(c, body) || c.failed.Load() > 0 {
			return nil, fmt.Errorf("first call at priority %d failed", c.prio)
		}
	}
	out.metrics.set("setup_s", time.Since(processStart).Seconds())
	for i, c := range callers {
		c.lat = newSlicedLatency(cfg.seed + int64(i))
	}

	var wg sync.WaitGroup
	for _, c := range callers {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := make([]byte, echoBodySize)
			for phase.Load() != phaseStop && call(c, body) {
			}
		}()
	}
	done := func() int64 { return callers[0].ok.Load() + callers[1].ok.Load() }
	var c0, c1 connSnapshot
	var sampler *goroutineSampler
	var peak int
	plain, traced := windows(cfg, &phase, done, tracedHooks{
		start: func() {
			c0 = counters.snap()
			queueMedianUs(reg) // opens the queue histograms' window
			sampler = startGoroutineSampler()
		},
		end: func() { c1, peak = counters.snap(), sampler.finish() },
	})
	wg.Wait()

	var okCalls, failed int64
	for _, c := range callers {
		okCalls += c.ok.Load()
		failed += c.failed.Load()
	}
	out.attempted, out.failed = okCalls+failed, failed
	if served := counterTotal(reg, "wire.server.requests"); int64(served) != okCalls+failed || execs.Load() != okCalls+failed {
		out.problem("calls %d (ok %d), servant executions %d, wire.server.requests %v: not equal",
			okCalls+failed, okCalls, execs.Load(), served)
	}
	if out.bad.Load() {
		return out, nil
	}

	m := out.metrics
	if err := sliceCosts(m, plain); err != nil {
		return nil, err
	}
	m.set("rss_peak_mb", peakRSSMB())
	if rec == nil {
		if err := callers[0].lat.report(m, "ef_p50_ms", "ef_p99_ms"); err != nil {
			return nil, err
		}
		if err := callers[1].lat.report(m, "be_p50_ms", ""); err != nil {
			return nil, err
		}
		return out, nil
	}
	wireLayer(m, rec, plain, traced, c0, c1, peak, reg)
	m.set("wire.dials", counterTotal(cli.Registry(), "wire.client.dials"))
	return out, nil
}

// probeEcho runs echo_small briefly for another workload's traced run.
func probeEcho() (metricSet, error) { return probe(runEcho) }

// probe runs a workload traced for one second and returns its metrics.
func probe(run func(runConfig) (*outcome, error)) (metricSet, error) {
	out, err := run(runConfig{seed: 1, seconds: time.Second, warm: 200 * time.Millisecond, rec: newRecorder()})
	if err != nil {
		return nil, err
	}
	if p := out.failedChecks(); len(p) > 0 {
		return nil, fmt.Errorf("check failed: %s", p[0])
	}
	return out.metrics, nil
}

// callID reads the call or event ID at the front of a body (0 for a
// body too short to carry one).
func callID(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// wireLayer fills the wire.* and go.* per-layer metrics of a traced run.
func wireLayer(m metricSet, rec *recorder, plain []window, traced window, c0, c1 connSnapshot, goroutinesPeak int, regs ...*telemetry.Registry) {
	for _, n := range []string{"wire.invoke", "wire.servant", "wire.outside_servant"} {
		if v, ok := rec.medianOf(n); ok {
			m.set(n+"_us", v)
		}
	}
	if v, ok := queueMedianUs(regs...); ok {
		m.set("wire.server_queue_us", v)
	}
	c0.perOpLayer(c1, traced.ops, m)
	traced.runtimeLayer(m, goroutinesPeak)
	m.set("trace.ops_ratio", traced.opsPerSec()/span(plain).opsPerSec())
}
