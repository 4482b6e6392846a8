package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/giop"
	"repro/internal/pubsub"
	"repro/internal/trace/telemetry"
	"repro/internal/wire"
)

const (
	chanKey     = "pubsub/chan"
	consumerKey = "consumer/push"
	frameSize   = 16 << 10
	imuSize     = 256
	// fanoutWindow is the number of events in flight: published and not
	// yet delivered to every subscriber that admits them.
	fanoutWindow = 8
)

// eventKind is the benchmark's own description of one event kind.
type eventKind struct {
	topic string
	prio  int16
	size  int
}

var (
	kindFrame = eventKind{"camera/front", wire.EFPriority, frameSize}
	kindIMU   = eventKind{"telemetry/imu", 0, imuSize}
)

// isFrame is the seeded event mix: about one frame to four telemetry
// events, a pure function of (seed, id) so checkers need no shared
// state.
func isFrame(seed int64, id uint64) bool {
	x := uint64(seed)*0x9E3779B97F4A7C15 + id
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x%5 == 0
}

// fanoutSub is one subscriber of the workload, with the admission table
// the benchmark checks deliveries against (written out, not computed by
// the program's topic matcher).
type fanoutSub struct {
	name          string
	topic         string
	minPrio, band int16
	frames, imu   bool
}

var fanoutSubs = []fanoutSub{
	{name: "display", topic: "camera/**", minPrio: wire.EFPriority, band: wire.EFPriority, frames: true},
	{name: "tile1", topic: "**", frames: true, imu: true},
	{name: "tile2", topic: "**", frames: true, imu: true},
	{name: "analytics", topic: "telemetry/**", imu: true},
}

func (s fanoutSub) admits(seed int64, id uint64) bool {
	if isFrame(seed, id) {
		return s.frames
	}
	return s.imu
}

func fanoutShape() frameShape {
	return frameShape{
		name: "16 KB push with priority, timestamp, deadline and event contexts",
		req: &giop.Request{
			RequestID: 7, ObjectKey: []byte(consumerKey), Operation: "push",
			ServiceContexts: []giop.ServiceContext{
				giop.PriorityContext(wire.EFPriority, 0),
				giop.TimestampContext(time.Now().UnixNano(), 0),
				giop.DeadlineContext(time.Now().Add(2*time.Second).UnixNano(), 0),
				giop.EventContext(kindFrame.topic, "", 42, wire.EFPriority, 1234, 1),
			},
			Body: make([]byte, frameSize),
		},
	}
}

// inflight tracks the deliveries each in-flight event still owes; a
// fixed table, so settling a delivery allocates nothing.
type inflight struct {
	mu    sync.Mutex
	slots [fanoutWindow]struct {
		id   uint64
		owed int32
	}
	free chan int // slot indexes; receiving one acquires a window place
}

func newInflight() *inflight {
	f := &inflight{free: make(chan int, fanoutWindow)}
	for i := 0; i < fanoutWindow; i++ {
		f.free <- i
	}
	return f
}

// settle books one delivery of id; it returns false for an event that
// is not in flight.
func (f *inflight) settle(id uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.slots {
		if s := &f.slots[i]; s.owed > 0 && s.id == id {
			if s.owed--; s.owed == 0 {
				f.free <- i
			}
			return true
		}
	}
	return false
}

// acquire waits for a window place and books id's deliveries on it.
func (f *inflight) acquire(id uint64, owed int32, timeout time.Duration) bool {
	select {
	case i := <-f.free:
		f.mu.Lock()
		f.slots[i].id, f.slots[i].owed = id, owed
		f.mu.Unlock()
		return true
	case <-time.After(timeout):
		return false
	}
}

// idle waits until no event is in flight.
func (f *inflight) idle(timeout time.Duration) bool {
	deadline := time.After(timeout)
	got := 0
	defer func() {
		for i := 0; i < got; i++ {
			f.free <- i
		}
	}()
	for ; got < fanoutWindow; got++ {
		select {
		case <-f.free:
		case <-deadline:
			return false
		}
	}
	return true
}

// fanout is one running pubsub_fanout deployment.
type fanout struct {
	seed   int64
	phase  atomic.Int32
	rec    *recorder
	out    *outcome
	flight *inflight

	ledgers   []*ledger
	delivered atomic.Int64

	latMu     sync.Mutex
	efLat, be *slicedLatency // ms, measured window only
}

// deliver is subscriber i's consumer callback.
func (f *fanout) deliver(i int, ev pubsub.Event) {
	p := f.phase.Load()
	start := time.Now()
	sub := fanoutSubs[i]
	id, stamp, err := parseEvent(ev.Payload)
	if err != nil {
		f.out.problem("%s: %v", sub.name, err)
		return
	}
	lat := float64(start.Sub(processStart).Nanoseconds()-stamp) / 1e6
	kind := kindIMU
	if isFrame(f.seed, id) {
		kind = kindFrame
	}
	if ev.Topic != kind.topic || ev.Priority != kind.prio || len(ev.Payload) != kind.size {
		f.out.problem("%s: event %d arrived as %s/%d/%dB, published as %s/%d/%dB",
			sub.name, id, ev.Topic, ev.Priority, len(ev.Payload), kind.topic, kind.prio, kind.size)
	}
	f.ledgers[i].record(id)
	if slice, ok := measuring(p); ok {
		f.latMu.Lock()
		switch {
		case kind == kindFrame && i == 0:
			f.efLat.add(slice, lat)
		case kind == kindIMU:
			f.be.add(slice, lat)
		}
		f.latMu.Unlock()
	}
	f.delivered.Add(1)
	if !f.flight.settle(id) {
		f.out.problem("%s: event %d delivered when none of its deliveries was owed", sub.name, id)
	}
	if p == phaseTraced {
		f.rec.leaf(id, uint64(4+i), "pubsub.consumer", start, time.Now())
	}
}

// runFanout is the pubsub_fanout workload: one publisher, a channel
// host with qosserve's lanes, four dial-back consumers.
func runFanout(cfg runConfig) (*outcome, error) {
	f := &fanout{
		seed: cfg.seed, rec: cfg.rec, out: &outcome{metrics: metricSet{}}, flight: newInflight(),
	}
	out, rec := f.out, cfg.rec
	hostReg := telemetry.NewRegistry()
	srv, err := wire.NewServer(wire.ServerConfig{Lanes: qosserveLanes(), Registry: hostReg, Name: "perfbench.host"})
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(time.Second)
	ch := pubsub.New(pubsub.ChannelConfig{Name: "perfbench", Async: true, Registry: hostReg})
	defer ch.Close()
	counters := &connCounters{}
	hcfg := wire.ChannelHostConfig{}
	if rec != nil {
		hcfg.NewPushClient = func(addr string) (*wire.Client, error) {
			return wire.NewClient(wire.ClientConfig{Addr: addr, Bands: []int16{0, wire.EFPriority},
				Registry: hostReg, Name: "pubsub.push", Dial: counters.dialer(addr)})
		}
	}
	host, err := wire.NewChannelHost(ch, hcfg)
	if err != nil {
		return nil, err
	}
	defer host.Close()
	srv.Register(chanKey, wire.HandlerFunc(func(req *wire.Request) ([]byte, error) {
		if rec == nil || f.phase.Load() != phaseTraced {
			return host.Dispatch(req)
		}
		start := time.Now()
		body, err := host.Dispatch(req)
		rec.child(callID(req.Body), "wire.servant", start, time.Now())
		return body, err
	}))
	hostAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	ccfg := wire.ClientConfig{Addr: hostAddr.String(), Bands: []int16{0, wire.EFPriority}, Name: "perfbench.publisher"}
	if rec != nil {
		ccfg.Dial = counters.dialer(hostAddr.String())
	}
	cli, err := wire.NewClient(ccfg)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	opts := wire.CallOptions{Timeout: 2 * time.Second}

	regs := []*telemetry.Registry{hostReg}
	for i, sub := range fanoutSubs {
		i := i
		f.ledgers = append(f.ledgers, newLedger())
		cs, err := wire.NewServer(wire.ServerConfig{Name: "perfbench.consumer." + sub.name})
		if err != nil {
			return nil, err
		}
		defer cs.Shutdown(time.Second)
		cs.Register(consumerKey, wire.ConsumerHandler(func(ev pubsub.Event) { f.deliver(i, ev) }))
		addr, err := cs.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		regs = append(regs, cs.Registry())
		err = wire.SubscribeRemote(cli, chanKey, wire.SubscribeSpec{
			Name: sub.name, Addr: addr.String(), ConsumerKey: consumerKey,
			Topic: sub.topic, MinPriority: sub.minPrio, Priority: sub.band,
			Outbox: 64, Policy: pubsub.Block,
		}, opts)
		if err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", sub.name, err)
		}
	}

	// publish sends event id through the host and records its span.
	var next uint64
	payloads := map[bool][][]byte{
		true:  fillers(cfg.seed, 8, frameSize-eventHeader),
		false: fillers(cfg.seed+1, 64, imuSize-eventHeader),
	}
	bufs := map[bool][]byte{true: make([]byte, frameSize), false: make([]byte, imuSize)}
	publish := func() error {
		id := next
		next++
		frame := isFrame(cfg.seed, id)
		kind := kindIMU
		if frame {
			kind = kindFrame
		}
		owed := int32(0)
		for _, sub := range fanoutSubs {
			if sub.admits(cfg.seed, id) {
				owed++
			}
		}
		if !f.flight.acquire(id, owed, 10*time.Second) {
			return fmt.Errorf("event window stalled: no delivery for 10s before event %d", id)
		}
		p := f.phase.Load()
		body := bufs[frame]
		fills := payloads[frame]
		start := time.Now()
		fillEvent(body, id, start.Sub(processStart).Nanoseconds(), fills[id%uint64(len(fills))])
		err := wire.PublishRemote(cli, chanKey, pubsub.Event{Topic: kind.topic, Priority: kind.prio, Payload: body}, opts)
		if err != nil {
			return fmt.Errorf("publish event %d: %w", id, err)
		}
		if p == phaseTraced {
			rec.root(id, "wire.invoke", "wire.outside_servant", start, time.Now())
		}
		return nil
	}
	// Ready: one event of each kind has reached every subscriber that
	// admits it, so every push band has dialed.
	for saw := map[bool]bool{}; !saw[true] || !saw[false]; {
		saw[isFrame(cfg.seed, next)] = true
		if err := publish(); err != nil {
			return nil, err
		}
		if !f.flight.idle(10 * time.Second) {
			return nil, fmt.Errorf("set-up event %d was not delivered", next-1)
		}
	}
	out.metrics.set("setup_s", time.Since(processStart).Seconds())
	// The benchmark's own buffers are not part of the system's set-up.
	f.efLat, f.be = newSlicedLatency(cfg.seed), newSlicedLatency(cfg.seed+1)

	var pubErr error
	var depthMax int
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for f.phase.Load() != phaseStop && !out.bad.Load() {
			if pubErr = publish(); pubErr != nil {
				return
			}
		}
	}()
	var c0, c1 connSnapshot
	var sampler *goroutineSampler
	var peak int
	stopDepth := make(chan struct{})
	depthDone := make(chan struct{})
	plain, traced := windows(cfg, &f.phase, f.delivered.Load, tracedHooks{
		start: func() {
			c0 = counters.snap()
			queueMedianUs(regs...) // opens the queue histograms' window
			sampler = startGoroutineSampler()
			go func() {
				defer close(depthDone)
				tick := time.NewTicker(time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stopDepth:
						return
					case <-tick.C:
						for _, s := range ch.Snapshot().Subscribers {
							if s.Depth > depthMax {
								depthMax = s.Depth
							}
						}
					}
				}
			}()
		},
		end: func() {
			c1, peak = counters.snap(), sampler.finish()
			close(stopDepth)
			<-depthDone
		},
	})
	<-pubDone
	if pubErr != nil {
		return nil, pubErr
	}
	if !f.flight.idle(10 * time.Second) {
		out.problem("deliveries still owed 10s after the last publish")
	}

	// Checks: every subscriber got exactly the events its table admits,
	// and the channel's own count agrees with the consumers'.
	var total int64
	for i, sub := range fanoutSubs {
		sub := sub
		for _, p := range f.ledgers[i].verify(sub.name, next, func(id uint64) bool { return sub.admits(cfg.seed, id) }) {
			out.problem("%s", p)
		}
		total += f.ledgers[i].count
	}
	snap := ch.Snapshot()
	for wait := time.Now(); snap.Delivered != uint64(total) && time.Since(wait) < 2*time.Second; snap = ch.Snapshot() {
		time.Sleep(time.Millisecond)
	}
	if snap.Delivered != uint64(total) || snap.Published != next || snap.Dropped != 0 {
		out.problem("channel reports %d published, %d delivered, %d dropped; the benchmark published %d and its consumers received %d",
			snap.Published, snap.Delivered, snap.Dropped, next, total)
	}
	out.attempted = total
	if out.bad.Load() {
		return out, nil
	}

	m := out.metrics
	if err := sliceCosts(m, plain); err != nil {
		return nil, err
	}
	m.set("rss_peak_mb", peakRSSMB())
	if rec == nil {
		if err := f.efLat.report(m, "ef_p50_ms", "ef_p99_ms"); err != nil {
			return nil, err
		}
		if err := f.be.report(m, "be_p50_ms", ""); err != nil {
			return nil, err
		}
		return out, nil
	}
	wireLayer(m, rec, plain, traced, c0, c1, peak, regs...)
	m.set("wire.dials", counterTotal(cli.Registry(), "wire.client.dials")+counterTotal(hostReg, "wire.client.dials"))
	if v, ok := rec.medianOf("wire.servant"); ok {
		m.set("pubsub.publish_us", v)
	}
	if v, ok := rec.medianOf("pubsub.consumer"); ok {
		m.set("pubsub.consumer_us", v)
	}
	m.set("pubsub.outbox_depth_max", float64(depthMax))
	var reordered int64
	for _, l := range f.ledgers {
		reordered += l.reordered
	}
	m.set("pubsub.reordered", float64(reordered))
	return out, nil
}

// probeFanout runs pubsub_fanout briefly for another workload's traced
// run.
func probeFanout() (metricSet, error) { return probe(runFanout) }
