package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"opsched"
	"opsched/internal/obs"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEndReplay turns a replay run into the end-to-end metrics.
func endToEndReplay(ctx context.Context, e env, w workload, t *tally) (map[string]metric, error) {
	r, err := runReplay(ctx, e, w, t)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":         {r.setupS, "s"},
		"jobs_per_s":      {r.jobsPerS, "1/s"},
		"cpu_ms_per_job":  {r.cpuMsPerJob, "ms"},
		"peak_rss_mb":     {r.rssMB, "MB"},
		"sim_makespan_ms": {r.makespanMs, "ms"},
	}, nil
}

// endToEndServe turns a serving run into the end-to-end metrics.
func endToEndServe(ctx context.Context, e env, w workload, t *tally) (map[string]metric, error) {
	r, err := runServe(ctx, e, w, t)
	if err != nil {
		return nil, err
	}
	f := r.fixed.load
	fmt.Fprintf(os.Stderr, "perfbench: open loop at %.0f req/s: accept p50 %.3f ms, p99 %.3f ms over %d submits (%d beyond p99), generator late by at most %.3f ms\n",
		fixedRPS, f.submitMs.quantile(0.5), f.submitMs.quantile(0.99), len(f.submitMs), f.submitMs.beyond(0.99), f.lateMaxMs)
	return map[string]metric{
		"setup_s":         {r.setupS, "s"},
		"jobs_per_s":      {r.jobsPerS, "1/s"},
		"cpu_ms_per_job":  {r.cpuMsPerJob, "ms"},
		"peak_rss_mb":     {r.rssMB, "MB"},
		"sim_makespan_ms": {r.fixed.makespanMs, "ms"},
	}, nil
}

// The in-process replays take this share of --seconds, and at least
// minPairs untraced/traced pairs.
const (
	inProcessShare = 0.3
	minPairs       = 2
)

// traced is the per-layer run. It measures the service end to end (a
// shorter replay run, or the open-loop HTTP phase for serve-mixed), then
// replays the same generated inputs in-process: with and without spans in
// alternation (the difference is the tracing overhead; the traced wall,
// the serial sum of the layers, is what the pipeline handoff is measured
// against), and once through pipeline.New for the pipeline's own
// instruments. Every in-process report must equal the service's.
func traced(ctx context.Context, e env, w workload, t *tally) (map[string]metric, error) {
	m := map[string]metric{}
	var csv []byte
	var want string // the service's sealed report, for replays
	var serviceWallMs float64
	var nJobs int
	newSource := func() (source, error) { return csvSource(csv) }
	if w.serve {
		f, err := fixedPhase(ctx, e, w, t, fixedShare*e.seconds)
		if err != nil {
			return nil, err
		}
		st := f.load
		for k, v := range map[string]float64{
			"http.submit_ns_p50": st.submitServiceNs.quantile(0.5),
			"http.submit_ns_p99": st.submitServiceNs.quantile(0.99),
			"http.accept_ms_p99": st.submitMs.quantile(0.99),
			"http.snapshot_ns":   mean(st.snapshotNs),
			"http.metrics_ns":    mean(st.metricNs),
			"http.non2xx":        float64(st.non2xx),
			"gen.late_ms_max":    st.lateMaxMs,
		} {
			m[k] = metric{v, httpUnits[k]}
		}
		jobs, err := fixedJobs(e.seed, fixedShare*e.seconds)
		if err != nil {
			return nil, err
		}
		nJobs = len(jobs)
		newSource = func() (source, error) { return &sliceSource{jobs: jobs}, nil }
	} else {
		short := e
		short.seconds = e.seconds / 3
		r, err := runReplay(ctx, short, w, t)
		if err != nil {
			return nil, err
		}
		want = r.report
		serviceWallMs = (r.replayWallS - r.setupS) * 1e3
		jobs, err := w.replayJobs(e.seed)
		if err != nil {
			return nil, err
		}
		nJobs = len(jobs)
		csv = traceCSV(jobs)
		for k, unit := range httpUnits {
			m[k] = metric{0, unit} // no HTTP on a replay
		}
	}

	// In-process replays, untraced and traced in alternation, until
	// inProcessShare of --seconds is spent (at least minPairs pairs). The
	// untraced ones are the reference for the tracing overhead; the last
	// traced one gives the layer breakdown. The first replay also warms
	// the process's profile cache.
	var refWalls, trWalls []float64
	var gd goDelta
	var tr *tracer
	var st *driveStats
	deadline := time.Now().Add(time.Duration(inProcessShare * e.seconds * float64(time.Second)))
	for i := 0; i < minPairs || time.Now().Before(deadline); i++ {
		for _, traced := range []bool{false, true} {
			src, err := newSource()
			if err != nil {
				return nil, err
			}
			var run *driveStats
			var rtr *tracer
			if traced {
				rtr = newTracer()
			}
			d, err := measureGo(func() error {
				c, o := w.engineConfig(obs.NewRegistry())
				var err error
				run, err = drive(c, o, src, rtr)
				return err
			})
			if err != nil {
				return nil, err
			}
			t.attempted += run.jobs
			if want == "" {
				want = run.render
			} else if run.render != want {
				t.fail(run.jobs, fmt.Errorf("in-process replay %d (traced %v): report differs from the service's", i, traced))
			}
			if traced {
				trWalls, tr, st = append(trWalls, ms(run.wall)), rtr, run
			} else {
				refWalls, gd = append(refWalls, ms(run.wall)), d
			}
		}
	}
	refMs, trMs := median(refWalls), median(trWalls)
	fmt.Fprintf(os.Stderr, "perfbench: in-process replay walls (ms): untraced %.1f, traced %.1f\n", refWalls, trWalls)
	hits, misses := opsched.ProfileCacheStats()

	self := tr.selfTimes()
	wallMs := ms(tr.spans[0].end - tr.spans[0].start)
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if gap := wallMs - ms(sum); gap > 1e-3 || gap < -1e-3 {
		return nil, fmt.Errorf("layer self times sum to %.3f ms, traced wall is %.3f ms", ms(sum), wallMs)
	}

	reg := obs.NewRegistry()
	pc, po := w.engineConfig(reg)
	src, err := newSource()
	if err != nil {
		return nil, err
	}
	ps, err := runPipeline(ctx, pc, po, reg, src)
	if err != nil {
		return nil, err
	}
	t.attempted += nJobs
	if ps.render != want {
		t.fail(nJobs, fmt.Errorf("in-process pipeline replay: report differs from the service's"))
	}

	jobs := float64(st.jobs)
	per := func(l layer, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(self[l]) / n
	}
	events := float64(st.events)
	for l := layer(0); l < numLayers; l++ {
		m[layerNames[l]+"_ms"] = metric{ms(self[l]), "ms"}
	}
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	add("trace.wall_ms", wallMs, "ms")
	add("trace.overhead_ms", trMs-refMs, "ms")
	add("decode.rows", jobs, "count")
	add("decode.ns_per_row", per(lDecode, jobs), "ns")
	add("admit.ns_per_job", per(lAdmit, jobs), "ns")
	add("place.views_ns_per_job", per(lViews, jobs), "ns")
	add("place.pick_ns_per_job", per(lPick, jobs), "ns")
	add("place.commit_ns_per_job", per(lCommit, jobs), "ns")
	add("event.count", events, "count")
	add("event.ns_per_event", per(lEventHit, events)+per(lEventMiss, events), "ns")
	add("memo.hits", float64(st.memoHits), "count")
	add("memo.misses", float64(st.memoMisses), "count")
	ratio := 0.0
	if n := st.memoHits + st.memoMisses; n > 0 {
		ratio = float64(st.memoHits) / float64(n)
	}
	add("memo.hit_ratio", ratio, "ratio")
	add("preempt.firings", float64(st.res.TriggerFirings), "count")
	add("preempt.preemptions", float64(st.res.Preemptions), "count")
	add("preempt.migrations", float64(st.res.Migrations), "count")
	add("perfmodel.cache_hits", float64(hits), "count")
	add("perfmodel.cache_misses", float64(misses), "count")
	add("render.bytes", float64(len(st.render)), "bytes")
	add("expo.ns_per_scrape", ps.expoNs, "ns")
	add("expo.bytes", float64(ps.expoBytes), "bytes")
	add("go.allocs_per_job", float64(gd.allocs)/jobs, "count")
	add("go.bytes_per_job", float64(gd.bytes)/jobs, "bytes")
	add("go.gc_cycles", float64(gd.gcs), "count")
	add("pipeline.submit_wait_ns", ps.submitWaitNs, "ns")
	add("pipeline.snapshot_ns", ps.snapshotNs, "ns")
	for _, s := range pipeStages {
		add("pipeline.stage_ns."+s, ps.stageNs[s], "ns")
	}
	for _, ch := range pipeChannels {
		add("pipeline.depth_max."+ch, ps.depthMax[ch], "count")
	}
	handoff := 0.0
	if !w.serve {
		handoff = serviceWallMs - trMs
	}
	add("pipeline.handoff_ms", handoff, "ms")

	fmt.Fprintf(os.Stderr, "perfbench: traced %.1f ms = ", wallMs)
	for l := layer(0); l < numLayers; l++ {
		fmt.Fprintf(os.Stderr, "%s %.1f%% + ", layerNames[l], 100*ms(self[l])/wallMs)
	}
	fmt.Fprintf(os.Stderr, "(service minus set-up %.1f ms)\n", serviceWallMs)
	return m, nil
}

func mean(s sample) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// httpUnits are the client-side HTTP metrics of the traced run.
var httpUnits = map[string]string{
	"http.submit_ns_p50": "ns", "http.submit_ns_p99": "ns", "http.accept_ms_p99": "ms",
	"http.snapshot_ns": "ns", "http.metrics_ns": "ns", "http.non2xx": "count", "gen.late_ms_max": "ms",
}
