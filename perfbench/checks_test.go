package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func echoBody(id uint64, seed int64) []byte {
	b := make([]byte, echoBodySize)
	fillEchoBody(b, id, fillers(seed, 1, echoBodySize-echoHeader)[0])
	return b
}

func TestEchoCheckCatchesAnotherCallsBody(t *testing.T) {
	sent, other := echoBody(1, 1), echoBody(2, 2)
	if err := checkEcho(sent, sent); err != nil {
		t.Fatalf("own reply rejected: %v", err)
	}
	err := checkEcho(sent, other)
	if err == nil || !strings.Contains(err.Error(), "call 1 got the body of call 2") {
		t.Fatalf("cross-talk not caught: %v", err)
	}
}

func TestEchoCheckCatchesCorruptReply(t *testing.T) {
	sent := echoBody(5, 1)
	bad := append([]byte(nil), sent...)
	bad[40] ^= 1
	if err := checkEcho(sent, bad); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("corrupt reply not caught: %v", err)
	}
	if err := checkEcho(sent, sent[:10]); err == nil {
		t.Fatal("short reply not caught")
	}
}

func TestEventHashCatchesCorruptPayload(t *testing.T) {
	p := make([]byte, imuSize)
	fillEvent(p, 9, 12345, fillers(1, 1, imuSize-eventHeader)[0])
	id, stamp, err := parseEvent(p)
	if err != nil || id != 9 || stamp != 12345 {
		t.Fatalf("parseEvent = %d, %d, %v", id, stamp, err)
	}
	p[imuSize-1] ^= 0x80
	if _, _, err := parseEvent(p); err == nil {
		t.Fatal("corrupted payload passed its hash")
	}
}

func TestLedgerCatchesMissingAndDuplicateDeliveries(t *testing.T) {
	all := func(uint64) bool { return true }
	l := newLedger()
	for _, id := range []uint64{0, 1, 2} {
		l.record(id)
	}
	if p := l.verify("s", 3, all); len(p) != 0 {
		t.Fatalf("complete ledger reported %v", p)
	}

	l = newLedger()
	l.record(0)
	l.record(2)
	p := l.verify("s", 3, all)
	if len(p) != 1 || !strings.Contains(p[0], "never delivered (first 1)") {
		t.Fatalf("missing delivery: %v", p)
	}

	l = newLedger()
	for _, id := range []uint64{0, 1, 1, 2} {
		l.record(id)
	}
	p = l.verify("s", 3, all)
	if len(p) != 1 || !strings.Contains(p[0], "event 1 delivered twice") {
		t.Fatalf("duplicate delivery: %v", p)
	}

	l = newLedger()
	l.record(0)
	l.record(1)
	p = l.verify("s", 2, func(id uint64) bool { return id == 0 })
	if len(p) != 1 || !strings.Contains(p[0], "filter excludes") {
		t.Fatalf("delivery its filter excludes: %v", p)
	}
}

func TestLedgerCountsReorders(t *testing.T) {
	l := newLedger()
	for _, id := range []uint64{0, 2, 1, 3, 5, 4} {
		l.record(id)
	}
	if l.reordered != 2 || l.count != 6 {
		t.Fatalf("reordered %d, count %d; want 2, 6", l.reordered, l.count)
	}
}

func TestAuditCheckCatchesFailedClaim(t *testing.T) {
	checks := []experiments.Check{
		{Experiment: "Figure 4", Claim: "a", OK: true},
		{Experiment: "Figure 6", Claim: "b", OK: false, Detail: "sender1 mean 90.0 ms"},
	}
	p := checkAudit(7, checks)
	if len(p) != 1 || !strings.Contains(p[0], "Figure 6") {
		t.Fatalf("failed claim: %v", p)
	}
	if p := checkAudit(7, nil); len(p) != 1 {
		t.Fatalf("empty audit: %v", p)
	}
}

func TestRerunCheckCatchesNondeterminism(t *testing.T) {
	a := []experiments.Check{{Experiment: "Figure 6", Claim: "b", OK: true, Detail: "sender1 mean 3.7 ms"}}
	b := []experiments.Check{{Experiment: "Figure 6", Claim: "b", OK: true, Detail: "sender1 mean 3.8 ms"}}
	if err := checkRerun(1, "audit", a, a); err != nil {
		t.Fatalf("identical reruns rejected: %v", err)
	}
	if err := checkRerun(1, "audit", a, b); err == nil {
		t.Fatal("differing rerun accepted")
	}
}

func TestPerOpDivision(t *testing.T) {
	if v, err := perOp(1500, 3); err != nil || v != 500 {
		t.Fatalf("perOp(1500, 3) = %v, %v", v, err)
	}
	if _, err := perOp(10, 0); err == nil {
		t.Fatal("perOp with no operations succeeded")
	}
	w := window{ops: 4}
	w.s1.at = w.s0.at.Add(2e9)
	if got := w.opsPerSec(); got != 2 {
		t.Fatalf("opsPerSec = %v, want 2", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	vs := make([]float64, 999)
	for i := range vs {
		vs[i] = float64(i)
	}
	if _, err := percentile(vs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9.99 beyond) accepted")
	}
	vs = append(vs, 999)
	v, err := percentile(vs, 0.99)
	if err != nil || math.Abs(v-989.01) > 1e-9 {
		t.Fatalf("p99 of 0..999 = %v, %v; want 989.01", v, err)
	}
	if _, err := percentile(vs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9.5 beyond) accepted")
	}
	if v, err := percentile(vs[:21], 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 0..20 = %v, %v", v, err)
	}
}

func TestReservoirRecordsWithoutAllocating(t *testing.T) {
	r := newReservoir(64, 1)
	allocs := testing.AllocsPerRun(1000, func() { r.add(1.5) })
	if allocs != 0 {
		t.Fatalf("reservoir add allocates %v times", allocs)
	}
	if len(r.vs) != 64 || r.n != 1001 {
		t.Fatalf("kept %d of %d", len(r.vs), r.n)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles(1,2,4) = %v %v %v", q1, med, q3)
	}
}

func TestFanoutMixAndAdmissionTable(t *testing.T) {
	frames := 0
	const n = 10000
	for id := uint64(0); id < n; id++ {
		f := isFrame(3, id)
		if f != isFrame(3, id) {
			t.Fatal("event mix is not a function of (seed, id)")
		}
		if f {
			frames++
		}
		owed := 0
		for _, s := range fanoutSubs {
			if s.admits(3, id) {
				owed++
			}
		}
		if owed != 3 {
			t.Fatalf("event %d admitted by %d subscribers, want 3", id, owed)
		}
	}
	if frames < n/5-300 || frames > n/5+300 {
		t.Fatalf("%d frames in %d events, want about one in five", frames, n)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", what, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}
