package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sync"

	"repro/internal/experiments"
)

// The output checks. Each compares what the program returned with what
// the benchmark computed on its own side; none of them uses the
// program's code to decide what is right.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fillers returns n seeded byte strings of the given size.
func fillers(seed int64, n, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// Echo request body: call ID, CRC-32C of the filler, filler.
const (
	echoBodySize = 64
	echoHeader   = 12
)

func fillEchoBody(b []byte, id uint64, filler []byte) {
	binary.BigEndian.PutUint64(b[0:8], id)
	binary.BigEndian.PutUint32(b[8:12], crc32.Checksum(filler, castagnoli))
	copy(b[echoHeader:], filler)
}

// checkEcho verifies that a reply is the request body it answers.
func checkEcho(sent, reply []byte) error {
	if len(reply) != len(sent) {
		return fmt.Errorf("reply of %d bytes to a %d-byte request", len(reply), len(sent))
	}
	want := binary.BigEndian.Uint64(sent[0:8])
	if got := binary.BigEndian.Uint64(reply[0:8]); got != want {
		return fmt.Errorf("call %d got the body of call %d", want, got)
	}
	if crc32.Checksum(reply[echoHeader:], castagnoli) != binary.BigEndian.Uint32(reply[8:12]) {
		return fmt.Errorf("call %d: reply body fails its hash", want)
	}
	if !bytes.Equal(reply, sent) {
		return fmt.Errorf("call %d: reply differs from the request", want)
	}
	return nil
}

// Event payload: event ID, publish stamp (ns on the benchmark clock),
// CRC-32C of the filler, filler.
const eventHeader = 20

func fillEvent(b []byte, id uint64, stamp int64, filler []byte) {
	binary.BigEndian.PutUint64(b[0:8], id)
	binary.BigEndian.PutUint64(b[8:16], uint64(stamp))
	binary.BigEndian.PutUint32(b[16:20], crc32.Checksum(filler, castagnoli))
	copy(b[eventHeader:], filler)
}

// parseEvent checks a delivered payload's hash and returns its ID and
// publish stamp.
func parseEvent(p []byte) (id uint64, stamp int64, err error) {
	if len(p) < eventHeader {
		return 0, 0, fmt.Errorf("payload of %d bytes is shorter than its header", len(p))
	}
	id = binary.BigEndian.Uint64(p[0:8])
	if crc32.Checksum(p[eventHeader:], castagnoli) != binary.BigEndian.Uint32(p[16:20]) {
		return id, 0, fmt.Errorf("event %d: payload fails its hash", id)
	}
	return id, int64(binary.BigEndian.Uint64(p[8:16])), nil
}

// ledger records one subscriber's deliveries by event ID.
type ledger struct {
	mu        sync.Mutex
	seen      []bool
	count     int64
	max       int64 // highest ID delivered so far, -1 before any
	reordered int64 // deliveries that arrived after a later event
	dups      []uint64
}

func newLedger() *ledger { return &ledger{max: -1} }

// record books one delivery.
func (l *ledger) record(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for uint64(len(l.seen)) <= id {
		l.seen = append(l.seen, make([]bool, len(l.seen)+1024)...)
	}
	if l.seen[id] {
		l.dups = append(l.dups, id)
		return
	}
	l.seen[id] = true
	l.count++
	if int64(id) < l.max {
		l.reordered++
	} else {
		l.max = int64(id)
	}
}

// verify compares the deliveries with the events 0..published-1 that
// admitted(id) says this subscriber must receive, exactly once each.
func (l *ledger) verify(name string, published uint64, admitted func(id uint64) bool) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, id := range l.dups {
		out = append(out, fmt.Sprintf("%s: event %d delivered twice", name, id))
	}
	var missing, extra int
	var firstMissing, firstExtra uint64
	for id := uint64(0); id < published || id < uint64(len(l.seen)); id++ {
		got := id < uint64(len(l.seen)) && l.seen[id]
		want := id < published && admitted(id)
		switch {
		case want && !got:
			if missing == 0 {
				firstMissing = id
			}
			missing++
		case got && !want:
			if extra == 0 {
				firstExtra = id
			}
			extra++
		}
	}
	if missing > 0 {
		out = append(out, fmt.Sprintf("%s: %d event(s) never delivered (first %d)", name, missing, firstMissing))
	}
	if extra > 0 {
		out = append(out, fmt.Sprintf("%s: %d event(s) delivered that its filter excludes (first %d)", name, extra, firstExtra))
	}
	return out
}

// checkAudit lists the audit claims that did not hold.
func checkAudit(seed int64, checks []experiments.Check) []string {
	var out []string
	if len(checks) == 0 {
		out = append(out, fmt.Sprintf("seed %d: the audit returned no claims", seed))
	}
	for _, c := range checks {
		if !c.OK {
			out = append(out, fmt.Sprintf("seed %d: %s: %q failed (%s)", seed, c.Experiment, c.Claim, c.Detail))
		}
	}
	return out
}

// checkRerun requires two results of the same seed to be identical:
// the sim plane is a discrete-event simulation, so any difference is a
// determinism fault.
func checkRerun(seed int64, what string, first, again any) error {
	if !reflect.DeepEqual(first, again) {
		return fmt.Errorf("seed %d: %s differs between two runs of the same seed", seed, what)
	}
	return nil
}
