package place

import (
	"math"
	"runtime"
	"testing"

	"opsched/internal/nn"
)

// goldenConfigs are the byte-equivalence fixtures: every preempt
// golden scenario — a firing priority preemption, a firing load-trigger
// migration, and a multi-step mixed-fleet synthetic under "all" — plus a
// plain GPU-fleet stream big enough to wave-pack.
func goldenConfigs() []struct {
	name string
	w    Workload
	c    Cluster
	opts Options
} {
	migr := Workload{
		{Name: "a", Model: "lstm", ArrivalNs: 0, Steps: 4},
		{Name: "b", Model: "lstm", ArrivalNs: 0, Steps: 4},
		{Name: "late", Model: "lstm", ArrivalNs: 40e6, Steps: 1},
	}
	preW, preC := preemptScenario()
	synth, err := SyntheticSteps(10, 11, []string{nn.LSTM, nn.DCGAN}, 1e6, 3)
	if err != nil {
		panic(err)
	}
	return []struct {
		name string
		w    Workload
		c    Cluster
		opts Options
	}{
		{"priority-preemption", preW, preC,
			Options{Policy: "model-aware", Arbiter: "priority", Preempt: "priority"}},
		{"load-migration", migr, Cluster{Nodes: 2},
			Options{Policy: "binpack", Preempt: "load"}},
		{"all-triggers-mixed", synth, Cluster{Nodes: 1, GPUs: 1},
			Options{Policy: "model-aware", Preempt: "all"}},
		{"gpu-stream", MustSynthetic(24, 7, []string{nn.LSTM, nn.DCGAN}, 1e5),
			Cluster{GPUs: 6}, Options{Policy: "model-aware"}},
	}
}

// TestWaveMemoEngineByteEquivalence: disabling the gang-signature memo
// changes nothing but speed — every golden config renders byte-identically
// with the memo disabled.
func TestWaveMemoEngineByteEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each golden config twice")
	}
	for _, tc := range goldenConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			on, err := PlaceJobs(tc.w, tc.c, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.opts
			opts.noWaveMemo = true
			off, err := PlaceJobs(tc.w, tc.c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if on.Render() != off.Render() {
				t.Errorf("memoized render differs from memo-free:\n%s\nvs\n%s", on.Render(), off.Render())
			}
		})
	}
}

// driveBatch pumps a canonical workload through an engine the way the
// batch wrapper does, returning the engine for inspection.
func driveBatch(t *testing.T, w Workload, c Cluster, opts Options) *Engine {
	t.Helper()
	specs, err := w.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for e.Completed() < len(specs) {
		eventNs, hasEvent := e.NextEventNs()
		if next < len(specs) {
			sp := specs[next]
			if !hasEvent || sp.ArrivalNs <= eventNs {
				next++
				ji, err := e.Admit(sp)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.PlaceAuto(ji, sp.ArrivalNs); err != nil {
					t.Fatal(err)
				}
				continue
			}
		}
		if !hasEvent {
			t.Fatalf("stalled with %d of %d done", e.Completed(), len(specs))
		}
		if _, err := e.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestWaveMemoCounters: the memo counters show real hits on a recurring
// stream, and stay zero when the memo is disabled.
func TestWaveMemoCounters(t *testing.T) {
	// A uniform replay-shaped stream — alternating models, equal priority
	// and weight — so wave compositions genuinely recur fleet-wide.
	w := make(Workload, 30)
	for i := range w {
		w[i] = JobSpec{Model: []string{"lstm", "dcgan"}[i%2], ArrivalNs: float64(i) * 1e5, Steps: 1}
	}
	c := Cluster{GPUs: 6}
	e := driveBatch(t, w, c, Options{Policy: "model-aware"})
	hits, misses := e.WaveMemoStats()
	if hits == 0 || misses == 0 {
		t.Errorf("memo counters hits=%d misses=%d on a recurring stream, want both positive", hits, misses)
	}

	off := driveBatch(t, w, c, Options{Policy: "model-aware", noWaveMemo: true})
	if h, m := off.WaveMemoStats(); h != 0 || m != 0 {
		t.Errorf("memo-free engine reports hits=%d misses=%d, want zeros", h, m)
	}
}

// TestQueueAggregatesMidRun: with jobs staged but no event retired, the
// fleet-wide incremental queue aggregates equal a direct rescan of every
// node's queue, and they drain to zero once the run completes.
func TestQueueAggregatesMidRun(t *testing.T) {
	e, err := NewEngine(Cluster{GPUs: 6}, Options{Policy: "spread"})
	if err != nil {
		t.Fatal(err)
	}
	w := MustSynthetic(12, 5, []string{nn.LSTM, nn.DCGAN}, 0)
	for i, sp := range w {
		ji, err := e.Admit(sp)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if err := e.PlaceAuto(ji, sp.ArrivalNs); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	jobs, workNs := 0, 0.0
	for _, ns := range e.nodes {
		jobs += len(ns.queue)
		workNs += ns.queuedWorkNs
	}
	if jobs != len(w) || e.queuedJobs != jobs || math.Abs(e.queuedWorkNs-workNs) > 1e-6 {
		t.Errorf("aggregates (%d jobs, %v ns), rescan says (%d, %v), %d staged",
			e.queuedJobs, e.queuedWorkNs, jobs, workNs, len(w))
	}
	for e.Completed() < len(w) {
		if _, err := e.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	// The work aggregate is incremental float adds and subtracts, so a
	// sub-nanosecond rounding residue may survive the drain.
	if e.queuedJobs != 0 || math.Abs(e.queuedWorkNs) > 1e-3 {
		t.Errorf("aggregates still hold %d jobs / %v ns after the run drained", e.queuedJobs, e.queuedWorkNs)
	}
}

// TestPlaceAllocsDeterministic: the engine is one serial event loop, so a
// run allocates the same objects whatever GOMAXPROCS is — the premise of
// gating BenchmarkPlaceHuge's allocs/op exactly. It counts
// runtime.MemStats.Mallocs rather than using testing.AllocsPerRun, which
// pins GOMAXPROCS to 1 and so could not see a difference.
func TestPlaceAllocsDeterministic(t *testing.T) {
	w := MustSynthetic(1000, 7, []string{nn.LSTM, nn.DCGAN}, 1e5)
	c := Cluster{GPUs: 64}
	run := func() {
		if _, err := PlaceJobs(w, c, Options{Policy: "model-aware"}); err != nil {
			t.Fatal(err)
		}
	}
	mallocs := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	run() // warm the process-wide caches both measured runs share
	serial, wide := mallocs(1), mallocs(4)
	if diff := math.Abs(float64(wide) - float64(serial)); diff > 0.005*float64(serial) {
		t.Fatalf("GOMAXPROCS(4) run made %d allocations, GOMAXPROCS(1) run %d: more than 0.5%% apart",
			wide, serial)
	}
}
