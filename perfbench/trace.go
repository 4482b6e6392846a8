package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// maxKeptSpans bounds the spans kept for the JSONL file; durations are
// aggregated for every span regardless.
const maxKeptSpans = 100000

// spanRec is one span as written to the JSONL file. Span IDs are
// derived from the operation's trace ID and the span's kind, so a child
// names its parent without a lookup.
type spanRec struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span kinds: the low three bits of a span ID. Leaf spans of one trace
// take kinds 3 to 7.
const (
	kindRoot  = 1
	kindChild = 2
)

func spanID(trace, kind uint64) uint64 { return trace<<3 | kind }

// recorder keeps the traced run's spans in memory: per-name durations
// for the per-layer medians, the first maxKeptSpans spans for the file,
// and child durations until their parent closes, for self times.
type recorder struct {
	base time.Time

	mu      sync.Mutex
	kept    []spanRec
	total   int64
	durs    map[string][]float64 // microseconds
	pending map[uint64]float64   // trace -> child duration, microseconds
}

func newRecorder() *recorder {
	return &recorder{
		base:    time.Now(),
		durs:    make(map[string][]float64),
		pending: make(map[uint64]float64),
	}
}

func (r *recorder) keep(s spanRec) {
	r.total++
	if len(r.kept) < maxKeptSpans {
		r.kept = append(r.kept, s)
	}
}

// child records a span whose parent is the trace's root span.
func (r *recorder) child(trace uint64, name string, start, end time.Time) {
	d := float64(end.Sub(start)) / float64(time.Microsecond)
	r.mu.Lock()
	r.keep(spanRec{trace, spanID(trace, kindChild), spanID(trace, kindRoot), name,
		start.Sub(r.base).Nanoseconds(), end.Sub(r.base).Nanoseconds()})
	r.durs[name] = append(r.durs[name], d)
	r.pending[trace] += d
	r.mu.Unlock()
}

// root records a trace's root span. When selfName is set, the root's
// duration minus its children's is recorded under selfName.
func (r *recorder) root(trace uint64, name, selfName string, start, end time.Time) {
	d := float64(end.Sub(start)) / float64(time.Microsecond)
	r.mu.Lock()
	r.keep(spanRec{trace, spanID(trace, kindRoot), 0, name,
		start.Sub(r.base).Nanoseconds(), end.Sub(r.base).Nanoseconds()})
	r.durs[name] = append(r.durs[name], d)
	if c, ok := r.pending[trace]; ok {
		delete(r.pending, trace)
		if selfName != "" {
			r.durs[selfName] = append(r.durs[selfName], d-c)
		}
	}
	r.mu.Unlock()
}

// leaf records a span under the trace's root that does not count
// against the root's self time (it runs beside the root, not inside it).
func (r *recorder) leaf(trace, kind uint64, name string, start, end time.Time) {
	d := float64(end.Sub(start)) / float64(time.Microsecond)
	r.mu.Lock()
	r.keep(spanRec{trace, spanID(trace, kind), spanID(trace, kindRoot), name,
		start.Sub(r.base).Nanoseconds(), end.Sub(r.base).Nanoseconds()})
	r.durs[name] = append(r.durs[name], d)
	r.mu.Unlock()
}

// medianOf returns the median duration (µs) recorded under name.
func (r *recorder) medianOf(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vs := r.durs[name]
	if len(vs) == 0 {
		return 0, false
	}
	return median(vs), true
}

// writeJSONL writes the kept spans, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.kept {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// connCounters counts the socket calls made through wrapped connections.
type connCounters struct {
	writes, reads, bytesOut atomic.Int64
}

type countingConn struct {
	net.Conn
	c *connCounters
}

func (c countingConn) Write(p []byte) (int, error) {
	c.c.writes.Add(1)
	n, err := c.Conn.Write(p)
	c.c.bytesOut.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	c.c.reads.Add(1)
	return c.Conn.Read(p)
}

// dialer returns a ClientConfig.Dial hook to addr whose connections are
// counted; it sets TCP_NODELAY as the client's own dial does.
func (cc *connCounters) dialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			if err := tc.SetNoDelay(true); err != nil {
				nc.Close()
				return nil, fmt.Errorf("nodelay: %w", err)
			}
		}
		return countingConn{nc, cc}, nil
	}
}

// connSnapshot is a point-in-time copy of the counters.
type connSnapshot struct{ writes, reads, bytesOut int64 }

func (cc *connCounters) snap() connSnapshot {
	return connSnapshot{cc.writes.Load(), cc.reads.Load(), cc.bytesOut.Load()}
}

// perOpLayer fills the wire.*_per_op socket metrics for a window.
func (a connSnapshot) perOpLayer(b connSnapshot, ops int64, m metricSet) {
	if ops <= 0 {
		return
	}
	m.set("wire.write_calls_per_op", float64(b.writes-a.writes)/float64(ops))
	m.set("wire.read_calls_per_op", float64(b.reads-a.reads)/float64(ops))
	m.set("wire.bytes_out_per_op", float64(b.bytesOut-a.bytesOut)/float64(ops))
}
