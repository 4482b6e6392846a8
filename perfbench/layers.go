package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// The per-layer probes that time one layer's public calls in isolation,
// in the traced run, after the workload has stopped.

// frameShape is a GIOP request of the shape a workload sends.
type frameShape struct {
	name string
	req  *giop.Request
}

// batchTiming times fn over batches of n calls and returns the median
// batch's time per call (ns) and the allocations per call over all
// batches.
func batchTiming(batches, n int, fn func()) (ns, allocs float64) {
	fn() // let lazy initialisation happen outside the timing
	per := make([]float64, 0, batches)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(batches*n)
}

var sinkBytes []byte

// giopLayer times Request.Marshal and giop.Decode on the shape.
func giopLayer(shape frameShape, m metricSet) error {
	frame := shape.req.Marshal(cdr.BigEndian)
	msg, err := giop.Decode(frame)
	if err != nil {
		return fmt.Errorf("giop probe: %s does not decode: %w", shape.name, err)
	}
	if got, ok := msg.(*giop.Request); !ok || len(got.Body) != len(shape.req.Body) {
		return fmt.Errorf("giop probe: %s decodes to another message", shape.name)
	}
	ns, allocs := batchTiming(21, 500, func() { sinkBytes = shape.req.Marshal(cdr.BigEndian) })
	m.set("giop.marshal_ns", ns)
	m.set("giop.marshal_allocs", allocs)
	var decErr error
	ns, allocs = batchTiming(21, 500, func() {
		if _, err := giop.Decode(frame); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return decErr
	}
	m.set("giop.decode_ns", ns)
	m.set("giop.decode_allocs", allocs)
	return nil
}

// telemetryLayer replays the labelled calls Client.Invoke makes on the
// registry for every invocation: the outcome counter and the RTT
// histogram with its exemplar.
func telemetryLayer(m metricSet) {
	reg := telemetry.NewRegistry()
	var i uint64
	ns, allocs := batchTiming(21, 2000, func() {
		i++
		bandL := telemetry.L("band", "16000")
		reg.Counter("wire.client.requests", bandL, telemetry.L("outcome", "ok")).Inc()
		reg.Histogram("wire.client.rtt_ms", bandL).ObserveEx(0.03,
			telemetry.Exemplar{TraceID: i, SpanID: i, At: time.Duration(i)})
	})
	m.set("telemetry.record_ns", ns)
	m.set("telemetry.record_allocs", allocs)
}

// simEventLayer times one Kernel.At plus its firing, with 1024 other
// events pending so the queue operations work at a realistic depth.
func simEventLayer(m metricSet) {
	k := sim.NewKernel(1)
	far := sim.Time(1 << 60)
	for i := 0; i < 1024; i++ {
		k.At(far+sim.Time(i), func() {})
	}
	fired := 0
	fn := func() { fired++ }
	ns, _ := batchTiming(21, 2000, func() {
		k.At(k.Now()+1, fn)
		k.Step()
	})
	m.set("sim.event_ns", ns)
}

// Metric groups filled by a workload's own traffic, or by a short probe
// of the workload that drives them.
var (
	wireGroup = []string{"wire.invoke_us", "wire.servant_us", "wire.outside_servant_us", "wire.server_queue_us",
		"wire.write_calls_per_op", "wire.read_calls_per_op", "wire.bytes_out_per_op", "wire.dials"}
	pubsubGroup = []string{"pubsub.publish_us", "pubsub.consumer_us", "pubsub.outbox_depth_max", "pubsub.reordered"}
	expGroup    = []string{"experiments.fig2_s", "experiments.fig4_s", "experiments.fig5_s",
		"experiments.fig6_s", "experiments.table1_s", "experiments.table2_s"}
)

// completeLayers adds the isolated layer probes to a traced run's
// metrics, and fills each layer group the workload does not drive from
// a short probe of the workload that does, so every per-layer metric is
// a measured value on every workload.
func completeLayers(name string, w workload, m metricSet) error {
	if err := giopLayer(w.shape(), m); err != nil {
		return err
	}
	telemetryLayer(m)
	simEventLayer(m)
	for _, g := range []struct {
		names []string
		from  string
	}{{wireGroup, "echo_small"}, {pubsubGroup, "pubsub_fanout"}, {expGroup, "sim_paper"}} {
		if m.has(g.names...) {
			continue
		}
		if g.from == name {
			return fmt.Errorf("workload did not measure %v", g.names)
		}
		pm, err := workloads[g.from].probe()
		if err != nil {
			return fmt.Errorf("%s probe: %w", g.from, err)
		}
		for _, n := range g.names {
			v, ok := pm[n]
			if !ok {
				return fmt.Errorf("%s probe did not measure %s", g.from, n)
			}
			m.set(n, v)
		}
	}
	return nil
}
