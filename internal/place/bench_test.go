package place

import (
	"fmt"
	"testing"

	"opsched/internal/nn"
	"opsched/internal/obs"
)

// BenchmarkPlaceLargeStream is the scale-hardening benchmark: a ≥1000-job
// stream placed onto GPU fleets of growing size. Before the wave-start
// min-heap the event loop rescanned every node's queue per event —
// O(jobs × nodes) work per event, quadratic over a run — so doubling the
// fleet slowed every event down; with the heap plus incremental per-node
// aggregates each event costs O(log nodes) beyond its own wave, and the
// 64-node fleet places the same stream at nearly the 8-node per-job cost.
// GPU nodes keep the wave simulations analytic so the benchmark measures
// the event loop, not multijob co-training.
func BenchmarkPlaceLargeStream(b *testing.B) {
	for _, nodes := range []int{8, 64} {
		for _, jobs := range []int{1000, 2000} {
			w := MustSynthetic(jobs, 7, []string{nn.LSTM, nn.DCGAN}, 1e5)
			b.Run(fmt.Sprintf("jobs=%d/gpus=%d", jobs, nodes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := PlaceJobs(w, Cluster{GPUs: nodes}, Options{Policy: "model-aware"})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Jobs) != jobs {
						b.Fatalf("placed %d jobs, want %d", len(res.Jobs), jobs)
					}
				}
			})
		}
	}
}

// BenchmarkPlaceHuge is the service-scale gate: tens of thousands of jobs
// over a thousand-node (and, in full runs, a ten-thousand-node) GPU fleet
// through the serial event loop with gang-signature memoization. The 20k ×
// 1k case must finish one iteration in well under a minute, and the
// 100k × 10k case is the north-star scale, skipped under -short because it
// keeps a 10k-node event heap hot for seconds per iteration. ReportAllocs
// pins the arena-reuse work: per-round allocations must not scale with the
// fleet, and the counts are deterministic (TestPlaceAllocsDeterministic).
func BenchmarkPlaceHuge(b *testing.B) {
	cases := []struct{ jobs, nodes int }{
		{20_000, 1_000},
		{100_000, 10_000},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("jobs=%d/gpus=%d", tc.jobs, tc.nodes), func(b *testing.B) {
			if tc.jobs > 20_000 && testing.Short() {
				b.Skip("100k × 10k is the full-suite north-star run; run without -short (scripts/bench.sh does)")
			}
			w := MustSynthetic(tc.jobs, 7, []string{nn.LSTM, nn.DCGAN}, 1e5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := PlaceJobs(w, Cluster{GPUs: tc.nodes}, Options{Policy: "model-aware"})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Jobs) != tc.jobs {
					b.Fatalf("placed %d jobs, want %d", len(res.Jobs), tc.jobs)
				}
			}
			b.ReportMetric(float64(tc.jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkPlaceLargeStreamObs is BenchmarkPlaceLargeStream's 1000×8 case
// with the full observability layer attached — metrics registry and
// tracer both live. Its distance from the obs-off numbers is the recorded
// cost of observing; the obs-off benchmarks themselves are gated at zero
// added allocations, so this one exists to keep the enabled cost visible,
// not to bound it.
func BenchmarkPlaceLargeStreamObs(b *testing.B) {
	w := MustSynthetic(1000, 7, []string{nn.LSTM, nn.DCGAN}, 1e5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &obs.Observer{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()}
		res, err := PlaceJobs(w, Cluster{GPUs: 8}, Options{Policy: "model-aware", Obs: o})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != 1000 || o.Tracer.Len() == 0 {
			b.Fatalf("placed %d jobs, traced %d events", len(res.Jobs), o.Tracer.Len())
		}
	}
}

// BenchmarkPlaceHeteroStream exercises the mixed-fleet path end to end —
// CPU waves through multijob co-training next to GPU stream waves — at a
// smoke-test size.
func BenchmarkPlaceHeteroStream(b *testing.B) {
	w := MustSynthetic(8, 7, []string{nn.LSTM, nn.DCGAN}, 1e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlaceJobs(w, Cluster{Nodes: 1, GPUs: 1}, Options{Policy: "model-aware"}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPickSink keeps BenchmarkPick's result live.
var benchPickSink int

// BenchmarkPick is the placement layer alone: ns per model-aware pick on a
// warmed fleet of 2k (1k KNL + 1k P100), 10k and 100k GPU nodes. Warming
// places two jobs per node over 10 virtual ms, so the pick sees waves in
// flight on every node and no idle one. Every op then picks a node for one
// more admitted job at the warm clock, with nothing placed in between, so
// all ops see the same fleet. path=index is PlaceAuto's pick;
// path=views is the reference ViewsInto → Policy.Pick scan on the same
// state, the O(nodes) cost the index replaces. 100k is skipped under
// -short.
func BenchmarkPick(b *testing.B) {
	fleets := []struct {
		name string
		c    Cluster
	}{
		{"knl=1000/gpus=1000", Cluster{Nodes: 1000, GPUs: 1000}},
		{"gpus=10000", Cluster{GPUs: 10_000}},
		{"gpus=100000", Cluster{GPUs: 100_000}},
	}
	for _, f := range fleets {
		for _, path := range []string{"index", "views"} {
			b.Run(f.name+"/path="+path, func(b *testing.B) {
				if f.c.GPUs > 10_000 && testing.Short() {
					b.Skip("the 100k-node fleet is the full-suite run; run without -short (scripts/bench.sh does)")
				}
				e, ji, at := warmFleet(b, f.c)
				vs := make([]NodeView, e.Nodes())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if path == "index" {
						benchPickSink = e.pick(ji, at)
					} else {
						e.ViewsInto(ji, at, vs)
						benchPickSink = e.pol.Pick(e.specs[ji], at, vs)
					}
				}
			})
		}
	}
}

// warmFleet places two single-step jobs per node on c under model-aware,
// arriving over 10 virtual ms, then admits one more job at the last
// arrival and returns it with its arrival instant, ready to be picked.
func warmFleet(b *testing.B, c Cluster) (*Engine, int, float64) {
	b.Helper()
	e, err := NewEngine(c, Options{Policy: "model-aware"})
	if err != nil {
		b.Fatal(err)
	}
	w := MustSynthetic(2*e.Nodes(), 7, []string{nn.LSTM, nn.DCGAN}, 1e7/float64(2*e.Nodes()))
	at := 0.0
	for _, sp := range w {
		at = sp.ArrivalNs
		for {
			ev, ok := e.NextEventNs()
			if !ok || ev >= at {
				break
			}
			if _, err := e.ProcessNextEvent(); err != nil {
				b.Fatal(err)
			}
		}
		ji, err := e.Admit(sp)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.PlaceAuto(ji, at); err != nil {
			b.Fatal(err)
		}
	}
	ji, err := e.Admit(JobSpec{Model: nn.LSTM, ArrivalNs: at})
	if err != nil {
		b.Fatal(err)
	}
	return e, ji, at
}
