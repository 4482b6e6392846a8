package main

import (
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/giop"
	"repro/internal/rtcorba"
)

// simSeeds is the audit seed list of one run: two seeds derived from
// the run's --seed.
func simSeeds(seed int64) []int64 { return []int64{2*seed + 101, 2*seed + 102} }

func simShape() frameShape {
	return frameShape{
		name: "5 KB oneway video frame with priority and timestamp contexts (the Figure 6 senders')",
		req: &giop.Request{
			RequestID: 7, ObjectKey: []byte("video1/sink"), Operation: "frame",
			ServiceContexts: []giop.ServiceContext{
				giop.PriorityContext(int16(rtcorba.Priority(30000)), 0),
				giop.TimestampContext(123456789, 0),
			},
			Body: make([]byte, 5<<10),
		},
	}
}

// auditOptions are the options experiments.Verify runs each experiment
// with: 60 s for Figure 2 and Table 1, 20 s for Figures 4 to 6, 150 s
// (25 images) for Table 2.
func auditOptions(seed int64) (base, prio, table2 experiments.Options) {
	base = experiments.Options{Seed: seed, Duration: 60 * time.Second}
	prio, table2 = base, base
	prio.Duration = 20 * time.Second
	table2.Duration = 150 * time.Second
	return base, prio, table2
}

// fig6Detail is the text Verify reports for the Figure 6 claim, rebuilt
// from separately run Figures 5 and 6.
func fig6Detail(f5 experiments.Figure5Result, f6 experiments.Figure6Result) string {
	return fmt.Sprintf("sender1 mean %.1f ms (vs %.0f ms unmanaged)",
		f6.Combined.Sum1.Mean*1e3, f5.WithTraffic.Sum1.Mean*1e3)
}

func verifyDetail(checks []experiments.Check, experiment string) string {
	for _, c := range checks {
		if c.Experiment == experiment {
			return c.Detail
		}
	}
	return ""
}

// tracedAudit runs the experiments Verify runs, one by one, each in its
// own span; the parts are what the traced half checks.
type auditParts struct {
	fig2   experiments.Figure2Result
	fig4   experiments.Figure4Result
	fig5   experiments.Figure5Result
	fig6   experiments.Figure6Result
	table1 experiments.Table1Result
	table2 experiments.Table2Result
}

func tracedAudit(rec *recorder, trace uint64, seed int64) auditParts {
	base, prio, t2 := auditOptions(seed)
	var p auditParts
	start := time.Now()
	step := func(kind uint64, name string, fn func()) {
		t := time.Now()
		fn()
		rec.leaf(trace, kind, name, t, time.Now())
	}
	step(2, "experiments.fig2", func() { p.fig2 = experiments.RunFigure2(base) })
	step(3, "experiments.fig4", func() { p.fig4 = experiments.RunFigure4(prio) })
	step(4, "experiments.fig5", func() { p.fig5 = experiments.RunFigure5(prio) })
	step(5, "experiments.fig6", func() { p.fig6 = experiments.RunFigure6(prio) })
	step(6, "experiments.table1", func() { p.table1 = experiments.RunTable1(base) })
	step(7, "experiments.table2", func() { p.table2 = experiments.RunTable2(t2) })
	rec.root(trace, "experiments.audit", "", start, time.Now())
	return p
}

// runSimPaper is the sim_paper workload: the reproduction audit
// (experiments.Verify) over the run's seed list, in whole rounds.
func runSimPaper(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	seeds := simSeeds(cfg.seed)
	fig2 := experiments.RunFigure2(experiments.Options{Seed: seeds[0]})
	out.metrics.set("setup_s", time.Since(processStart).Seconds())
	if len(fig2.Hops) != 3 {
		out.problem("Figure 2 built %d hops, want 3", len(fig2.Hops))
		return out, nil
	}

	// first holds each seed's first audit; every later audit of the same
	// seed must equal it. The warm-up audit is the first of seeds[0].
	first := map[int64][]experiments.Check{}
	audit := func(seed int64) {
		checks := experiments.Verify(experiments.Options{Seed: seed})
		for _, p := range checkAudit(seed, checks) {
			out.problem("%s", p)
		}
		if prev, ok := first[seed]; ok {
			if err := checkRerun(seed, "the audit", prev, checks); err != nil {
				out.problem("%v", err)
			}
		} else {
			first[seed] = checks
		}
	}
	audit(seeds[0])

	// rounds audits the seed list until the time is spent, in whole
	// rounds, at least one; each round is one window.
	rounds := func(d time.Duration, op func(seed int64)) []window {
		var ws []window
		start := time.Now()
		for len(ws) == 0 || time.Since(start) < d {
			w := window{s0: takeSnapshot()}
			for _, s := range seeds {
				op(s)
				w.ops++
			}
			w.s1 = takeSnapshot()
			ws = append(ws, w)
		}
		return ws
	}
	if cfg.rec == nil {
		ws := rounds(cfg.seconds, audit)
		out.attempted = span(ws).ops + 1
		if err := simLatencies(out, seeds, first); err != nil {
			return nil, err
		}
		if err := sliceCosts(out.metrics, ws); err != nil {
			return nil, err
		}
		out.metrics.set("rss_peak_mb", peakRSSMB())
		return out, nil
	}

	plain := span(rounds(cfg.seconds/2, audit))
	sampler := startGoroutineSampler()
	var trace uint64
	traced := span(rounds(cfg.seconds/2, func(seed int64) {
		trace++
		p := tracedAudit(cfg.rec, trace, seed)
		if got, want := fig6Detail(p.fig5, p.fig6), verifyDetail(first[seed], "Figure 6"); got != want {
			out.problem("seed %d: Figure 6 run alone reports %q, the audit %q", seed, got, want)
		}
	}))
	out.attempted = plain.ops + traced.ops + 1
	m := out.metrics
	for _, n := range []string{"fig2", "fig4", "fig5", "fig6", "table1", "table2"} {
		if v, ok := cfg.rec.medianOf("experiments." + n); ok {
			m.set("experiments."+n+"_s", v/1e6)
		}
	}
	traced.runtimeLayer(m, sampler.finish())
	m.set("trace.ops_ratio", traced.opsPerSec()/plain.opsPerSec())
	return out, nil
}

// simLatencies sets the end-to-end latency metrics of sim_paper: the
// virtual-time one-way latencies of Figure 6's sender 1 (EF) and
// sender 2 (BE), pooled over the seed list. Figure 6 is rerun for each
// seed and must agree with what the audit reported for it.
func simLatencies(out *outcome, seeds []int64, first map[int64][]experiments.Check) error {
	var ef, be []float64
	for _, seed := range seeds {
		_, prio, _ := auditOptions(seed)
		f5 := experiments.RunFigure5(prio)
		f6 := experiments.RunFigure6(prio)
		if got, want := fig6Detail(f5, f6), verifyDetail(first[seed], "Figure 6"); got != want {
			out.problem("seed %d: Figure 6 run alone reports %q, the audit %q", seed, got, want)
		}
		ef = append(ef, f6.Combined.S1.Values()...)
		be = append(be, f6.Combined.S2.Values()...)
	}
	for _, l := range []struct {
		name string
		vs   []float64
		q    float64
	}{{"ef_p50_ms", ef, 0.5}, {"ef_p99_ms", ef, 0.99}, {"be_p50_ms", be, 0.5}} {
		v, err := percentile(l.vs, l.q)
		if err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		out.metrics.set(l.name, v*1e3) // series hold seconds
	}
	return nil
}

// probeSimPaper runs one traced audit for another workload's traced
// run.
func probeSimPaper() (metricSet, error) {
	rec := newRecorder()
	tracedAudit(rec, 1, simSeeds(1)[0])
	m := metricSet{}
	for _, n := range []string{"fig2", "fig4", "fig5", "fig6", "table1", "table2"} {
		v, _ := rec.medianOf("experiments." + n)
		m.set("experiments."+n+"_s", v/1e6)
	}
	return m, nil
}
