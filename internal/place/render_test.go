package place

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// fixedSamples returns seeded values that stress appendFixed at precision
// prec: wide-range magnitudes of both signs, exact decimal halves at the
// rounding digit and their ±1 ulp neighbours, powers of ten and the
// carry boundaries just below them ±1 ulp, and every fallback class.
func fixedSamples(rng *rand.Rand, n, prec int) []float64 {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	vs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		1, -1, down(1), up(1), 1e15, down(1e15), up(1e15), -1e15, down(-1e15), 0.5, 0.9995, 9.9995, 99.995}
	scale := math.Pow(10, float64(prec))
	for k := 0; k <= 16; k++ {
		p := math.Pow(10, float64(k))
		carry := p - 0.5/scale // rounds up to 10^k exactly at the half
		for _, x := range []float64{p, down(p), up(p), carry, down(carry), up(carry)} {
			vs = append(vs, x, -x)
		}
	}
	for len(vs) < n {
		var x float64
		switch rng.Intn(4) {
		case 0: // log-uniform over 1e-4 .. 1e17
			x = math.Pow(10, rng.Float64()*21-4)
		case 1: // a decimal half at the rounding digit, at any magnitude
			digits := rng.Intn(16)
			m := float64(rng.Int63n(int64(math.Pow(10, float64(digits))) + 1))
			x = (m + 0.5) / scale
		case 2: // a short decimal: ms-scale report values
			x = float64(rng.Int63n(1e9)) / math.Pow(10, float64(rng.Intn(7)))
		default: // raw bits in the formatted range
			x = math.Float64frombits(rng.Uint64()>>12 | math.Float64bits(1+rng.Float64())&^(1<<52-1))
			x *= math.Pow(10, float64(rng.Intn(15)))
		}
		switch rng.Intn(3) {
		case 0:
			x = down(x)
		case 1:
			x = up(x)
		}
		if rng.Intn(4) == 0 {
			x = -x
		}
		vs = append(vs, x)
	}
	return vs
}

// TestAppendFixedMatchesStrconv: the report's fixed-point helper is byte
// for byte strconv's 'f' at the precisions Render uses (and at 0, 1 and 4),
// over several million seeded values.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	n := 1_500_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(15))
	var got, want []byte
	for _, prec := range []int{2, 3, 0, 1, 4} {
		count := n
		if prec != 2 && prec != 3 {
			count = n / 20
		}
		for _, v := range fixedSamples(rng, count, prec) {
			got = appendFixed(got[:0], v, prec)
			want = strconv.AppendFloat(want[:0], v, 'f', prec, 64)
			if string(got) != string(want) {
				t.Fatalf("appendFixed(%v [%#x], %d) = %q, strconv says %q",
					v, math.Float64bits(v), prec, got, want)
			}
		}
	}
}

// renderFmt is the fmt-based report layout Render replaced, kept as the
// oracle its output must match byte for byte.
func renderFmt(r *Result) string {
	nameW, modelW := len("job"), len("model")
	for _, p := range r.Jobs {
		if len(p.Name) > nameW {
			nameW = len(p.Name)
		}
		if len(p.Model) > modelW {
			modelW = len(p.Model)
		}
	}
	nodeW := len("node")
	if w := len(fmt.Sprintf("%d", r.Nodes-1)); w > nodeW {
		nodeW = w
	}
	waveW := len("wave")
	for _, p := range r.Jobs {
		if w := len(fmt.Sprintf("%d", p.Wave)); w > waveW {
			waveW = w
		}
	}
	preempted := r.Preemptions > 0
	serving := r.InferenceJobs > 0
	pathW := len("path")
	for _, p := range r.Jobs {
		if len(p.Path) > pathW {
			pathW = len(p.Path)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "placement: %d jobs over %d nodes, policy=%s, arbiter=%s, fleet=%s\n",
		len(r.Jobs), r.Nodes, r.Policy, r.Arbiter, r.Fleet)
	fmt.Fprintf(&b, "  %-*s  %-*s  %*s  %-3s  %*s  %10s  %10s  %10s  %10s  %8s  %8s",
		nameW, "job", modelW, "model", nodeW, "node", "hw", waveW, "wave",
		"arrive(ms)", "queue(ms)", "corun(ms)", "jct(ms)", "slowdown", "deadline")
	if serving {
		fmt.Fprintf(&b, "  %-5s  %5s  %4s", "class", "batch", "slo")
	}
	if preempted {
		fmt.Fprintf(&b, "  %3s  %-*s", "pre", pathW, "path")
	}
	b.WriteString("\n")
	for _, p := range r.Jobs {
		deadline := "-"
		if p.DeadlineNs > 0 {
			if p.DeadlineMet {
				deadline = "met"
			} else {
				deadline = "MISS"
			}
		}
		fmt.Fprintf(&b, "  %-*s  %-*s  %*d  %-3s  %*d  %10.3f  %10.3f  %10.3f  %10.3f  %7.2fx  %8s",
			nameW, p.Name, modelW, p.Model, nodeW, p.Node, p.Kind, waveW, p.Wave,
			p.ArrivalNs/1e6, p.QueueNs/1e6, p.CoRunNs/1e6, p.JCTNs()/1e6, p.Slowdown, deadline)
		if serving {
			class, batch, slo := "train", "-", "-"
			if p.Class == ClassInference {
				class = "infer"
				batch = strconv.Itoa(p.Batched)
				if p.SLONs > 0 {
					if p.SLOMet {
						slo = "met"
					} else {
						slo = "MISS"
					}
				}
			}
			fmt.Fprintf(&b, "  %-5s  %5s  %4s", class, batch, slo)
		}
		if preempted {
			path := p.Path
			if path == "" {
				path = "-"
			}
			fmt.Fprintf(&b, "  %3d  %-*s", p.Preemptions, pathW, path)
		}
		b.WriteString("\n")
	}
	idxW := len(fmt.Sprintf("%d", r.Nodes-1))
	for _, ns := range r.NodeStats {
		fmt.Fprintf(&b, "  node %*d [%s]: %d jobs in %d waves, busy %.3f ms, util %.2f\n",
			idxW, ns.Node, ns.Kind, ns.Jobs, ns.Waves, ns.BusyNs/1e6, ns.Utilization)
	}
	fmt.Fprintf(&b, "makespan %.3f ms, mean jct %.3f ms, mean queue %.3f ms, fairness %.3f (Jain, solo-normalized)",
		r.MakespanNs/1e6, r.MeanJCTNs/1e6, r.MeanQueueNs/1e6, r.FairnessIndex)
	if r.DeadlinesTotal > 0 {
		fmt.Fprintf(&b, ", deadlines %d/%d met", r.DeadlinesMet, r.DeadlinesTotal)
	}
	if serving {
		fmt.Fprintf(&b, "\ninference: %d requests (%d training jobs), SLO %d/%d met (%.1f%% attainment), jct p50 %.3f ms p99 %.3f ms, goodput %.1f req/s",
			r.InferenceJobs, r.TrainingJobs, r.SLOMet, r.SLOTotal, 100*r.SLOAttainment,
			r.InferP50JCTNs/1e6, r.InferP99JCTNs/1e6, r.GoodputPerSec)
	}
	if preempted {
		fmt.Fprintf(&b, ", preemptions %d (%d migrated, %d trigger firings), disruption %.3f ms",
			r.Preemptions, r.Migrations, r.TriggerFirings, r.DisruptionNs/1e6)
	}
	b.WriteString("\n")
	return b.String()
}

// TestRenderMatchesFmt: Render is byte-identical to the fmt layout on
// seeded results that exercise every column — unicode and over-wide
// names, multi-digit waves and nodes, inference and preemption columns,
// huge, tiny, negative and non-finite values — and on a real migrating,
// serving run.
func TestRenderMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	value := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return pick(0, math.Copysign(0, -1), math.NaN(), math.Inf(1), -1e6, 1e21, 999.9995e6)
		case 1:
			return -rng.Float64() * 1e9
		default:
			return math.Pow(10, rng.Float64()*14)
		}
	}
	names := []string{"a", "job-0042", "ñandú-λ", "日本語", "a-very-long-job-name-indeed"}
	for trial := 0; trial < 200; trial++ {
		r := &Result{Policy: "model-aware", Arbiter: "srwf", Nodes: 1 + rng.Intn(1200), Fleet: "2×x"}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			p := PlacedJob{
				Name: names[rng.Intn(len(names))], Model: names[rng.Intn(len(names))],
				Node: rng.Intn(r.Nodes), Kind: []string{KindCPU, KindGPU, "tpu-x"}[rng.Intn(3)],
				Wave: rng.Intn(1 + rng.Intn(100000)), ArrivalNs: value(), QueueNs: value(),
				CoRunNs: value(), FinishNs: value(), Slowdown: value(), DeadlineNs: pick(0, 1),
				DeadlineMet: rng.Intn(2) == 0, Preemptions: rng.Intn(3) * rng.Intn(200),
				SLONs: pick(0, 1), SLOMet: rng.Intn(2) == 0, Batched: rng.Intn(12),
			}
			if rng.Intn(3) == 0 {
				p.Path = fmt.Sprintf("n%02d/cpu -> n%03d/gpu", rng.Intn(100), rng.Intn(1000))
			}
			if rng.Intn(2) == 0 {
				p.Class = ClassInference
			}
			r.Jobs = append(r.Jobs, p)
		}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			r.NodeStats = append(r.NodeStats, NodeStats{Node: rng.Intn(r.Nodes), Kind: KindGPU,
				Jobs: rng.Intn(1e6), Waves: rng.Intn(100), BusyNs: value(), Utilization: value()})
		}
		r.finalize()
		if rng.Intn(2) == 0 {
			r.Preemptions, r.InferenceJobs = 0, 0
		}
		if got, want := r.Render(), renderFmt(r); got != want {
			t.Fatalf("trial %d: Render differs from the fmt layout:\n%s\nwant:\n%s", trial, got, want)
		}
	}

	w := Workload{
		{Name: "a", Model: "lstm", ArrivalNs: 0, Steps: 4},
		{Name: "b", Model: "lstm", ArrivalNs: 0, Steps: 4},
		{Name: "late", Model: "lstm", ArrivalNs: 40e6, Steps: 1},
		{Name: "q", Model: "dcgan", ArrivalNs: 41e6, Class: ClassInference, SLONs: 5e6},
	}
	res, err := PlaceJobs(w, Cluster{Nodes: 2}, Options{Policy: "binpack", Preempt: "load"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 || res.InferenceJobs == 0 {
		t.Fatalf("run lacks a migration or a request:\n%s", res.Render())
	}
	if got, want := res.Render(), renderFmt(res); got != want {
		t.Fatalf("Render differs from the fmt layout:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(res.Render(), " -> ") {
		t.Fatalf("migrated job's path missing:\n%s", res.Render())
	}
}
