package place

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"opsched/internal/gpu"
	"opsched/internal/nn"
)

// checkPick asserts that the engine's pick for job ji at nowNs is the node
// the reference Views → Policy.Pick returns, and that the index answered
// itself unless model-aware found every node full. It returns the node.
func checkPick(t *testing.T, e *Engine, ji int, nowNs float64, label string) int {
	t.Helper()
	vs := e.Views(ji, nowNs)
	want := e.pol.Pick(e.specs[ji], nowNs, vs)
	var work []float64
	if e.idx.mode == pickModelAware {
		work = e.jobWorkPerRuntime(ji)
	}
	if got, ok := e.idx.pick(nowNs, work); !ok {
		full := e.idx.mode == pickModelAware
		for _, v := range vs {
			full = full && v.Load() >= v.Capacity
		}
		if !full {
			t.Fatalf("%s: index refused job %d at %v on a fleet with room", label, ji, nowNs)
		}
	} else if got != want {
		t.Fatalf("%s: job %d at %v: index picked %d, Views→Pick %d", label, ji, nowNs, got, want)
	}
	if got := e.pick(ji, nowNs); got != want {
		t.Fatalf("%s: job %d at %v: engine picked %d, Views→Pick %d", label, ji, nowNs, got, want)
	}
	return want
}

// TestIndexedPickMatchesPick: on evolving engine state (waves in flight,
// queues staged, inference batches folding) the index returns exactly the
// node Views → Policy.Pick would, for every built-in policy.
func TestIndexedPickMatchesPick(t *testing.T) {
	for _, policy := range Policies() {
		e, err := NewEngine(Cluster{Nodes: 3, GPUs: 5}, Options{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		training := MustSynthetic(30, 11, []string{nn.LSTM, nn.DCGAN, nn.ResNet50}, 2e6)
		serving := MustSyntheticInference(12, 13, []string{nn.DCGAN}, 3e6, 50e6)
		for i, sp := range training.Merge(serving) {
			ji, err := e.Admit(sp)
			if err != nil {
				t.Fatalf("%s job %d: %v", policy, i, err)
			}
			if _, err := e.AdvanceTo(sp.ArrivalNs); err != nil {
				t.Fatalf("%s advance %d: %v", policy, i, err)
			}
			n := checkPick(t, e, ji, sp.ArrivalNs, policy)
			if err := e.Place(ji, n, sp.ArrivalNs); err != nil {
				t.Fatalf("%s place %d: %v", policy, i, err)
			}
		}
	}
}

// TestIndexedPickFallback: model-aware on a saturated fleet, a pick
// before the index clock and a policy the index does not know all take the
// reference Views → Pick path and still place.
func TestIndexedPickFallback(t *testing.T) {
	e, err := NewEngine(Cluster{GPUs: 2}, Options{Policy: "model-aware"})
	if err != nil {
		t.Fatal(err)
	}
	capacity := e.rtCap[0]
	for k := 0; k < 2*capacity+1; k++ {
		ji, err := e.Admit(JobSpec{Model: "lstm"})
		if err != nil {
			t.Fatal(err)
		}
		n := checkPick(t, e, ji, 0, "saturating")
		if err := e.Place(ji, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := e.idx.pick(0, e.jobWorkPerRuntime(0)); ok {
		t.Fatal("index answered on a fleet where every node is full")
	}
	if _, ok := e.idx.pick(-1, e.jobWorkPerRuntime(0)); ok {
		t.Fatal("index answered for an instant before its clock")
	}

	e, err = NewEngine(Cluster{GPUs: 2}, Options{Policy: "spread"})
	if err != nil {
		t.Fatal(err)
	}
	e.pol, e.idx = pickFirst{}, newPlaceIndex(pickFirst{}, e.rtIdx, e.rtCap, e.rtAlpha)
	if e.idx != nil {
		t.Fatal("the index claimed a custom policy")
	}
	ji, err := e.Admit(JobSpec{Model: "lstm"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PlaceAuto(ji, 0); err != nil {
		t.Fatal(err)
	}
	if e.placed[ji].Node != 0 {
		t.Fatalf("fallback placed on node %d, want 0", e.placed[ji].Node)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("ViewsInto accepted a wrong-length slice")
		}
	}()
	e.ViewsInto(ji, 0, make([]NodeView, 3))
}

// pickFirst is a minimal non-built-in policy for the fallback test.
type pickFirst struct{}

func (pickFirst) Name() string                          { return "pick-first" }
func (pickFirst) Pick(JobSpec, float64, []NodeView) int { return 0 }

// TestIndexOracleEngine is the index's randomized oracle on live engine
// state: every arrival's pick is checked against Views → Policy.Pick
// across policies, fleets (KNL-only, GPU-only, mixed, one-stream GPUs),
// preemption off and all, and training-only or inference-mixed streams.
// Some arrivals are moved onto the next node event's instant, so drains
// land exactly on now; the large idle fleets leave many nodes free at now.
func TestIndexOracleEngine(t *testing.T) {
	oneStream := gpu.NewP100()
	oneStream.Streams = 1
	fleets := []struct {
		name string
		c    Cluster
	}{
		{"knl", Cluster{Nodes: 3, Machine: tinyMachine()}},
		{"gpu", Cluster{GPUs: 6}},
		{"mixed", Cluster{Nodes: 2, Machine: tinyMachine(), GPUs: 4}},
		{"one-stream", Cluster{Nodes: 1, Machine: tinyMachine(), GPUs: 5, GPU: oneStream}},
		{"idle-fleet", Cluster{GPUs: 40}},
	}
	jobs := 60
	if testing.Short() {
		jobs = 30
	}
	for fi, f := range fleets {
		for _, policy := range Policies() {
			for _, preempt := range []string{"off", "all"} {
				for _, inference := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/inference=%v", f.name, policy, preempt, inference)
					seed := uint64(100*fi + len(name))
					t.Run(name, func(t *testing.T) {
						oracleRun(t, f.c, Options{Policy: policy, Preempt: preempt}, oracleWorkload(t, jobs, seed, inference), seed)
					})
				}
			}
		}
	}
}

// oracleWorkload is a seeded multi-step training stream, optionally with
// SLO-carrying inference requests mixed in, in arrival order.
func oracleWorkload(t *testing.T, n int, seed uint64, inference bool) Workload {
	t.Helper()
	w, err := SyntheticSteps(n, seed, []string{nn.LSTM, nn.DCGAN}, 4e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if inference {
		w = w.Merge(MustSyntheticInference(n/2, seed+1, []string{nn.DCGAN, nn.LSTM}, 8e6, 20e6))
	}
	sort.SliceStable(w, func(a, b int) bool { return w[a].ArrivalNs < w[b].ArrivalNs })
	return w
}

// oracleRun drives w through a fresh engine the way the pipeline's
// execution stage does, checking every pick against the reference.
func oracleRun(t *testing.T, c Cluster, opts Options, w Workload, seed uint64) {
	t.Helper()
	e, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	clock := 0.0
	for i, sp := range w {
		at := math.Max(sp.ArrivalNs, clock)
		if ev, ok := e.NextEventNs(); ok && ev >= clock && ev <= at && rng.Intn(3) == 0 {
			at = ev // arrive exactly on a round end or a drain
		}
		clock = at
		sp.ArrivalNs = at
		if sp.DeadlineNs > 0 && sp.DeadlineNs < at {
			sp.DeadlineNs = at
		}
		for {
			ev, ok := e.NextEventNs()
			if !ok || ev >= at {
				break
			}
			if _, err := e.ProcessNextEvent(); err != nil {
				t.Fatal(err)
			}
		}
		ji, err := e.Admit(sp)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		n := checkPick(t, e, ji, at, fmt.Sprintf("job %d", i))
		if err := e.Place(ji, n, at); err != nil {
			t.Fatal(err)
		}
	}
	for e.Completed() < e.Admitted() {
		if _, err := e.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexOracleNearTies drives the index directly with adversarial node
// views — horizons equal to now, one ulp either side of it, and one ulp
// apart from each other, against job work large enough that float
// rounding maps distinct horizons to one predicted finish — and checks
// every pick against the reference policies over the same views.
func TestIndexOracleNearTies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		classes := 1 + rng.Intn(3)
		caps := make([]int, classes)
		alpha := make([]float64, classes)
		for k := range caps {
			caps[k] = 1 + rng.Intn(4)
			alpha[k] = []float64{0, 0.22, 0.5}[rng.Intn(3)]
		}
		nodes := 1 + rng.Intn(24)
		cls := make([]int, nodes)
		for i := range cls {
			cls[i] = rng.Intn(classes)
		}
		for _, pol := range []Policy{Spread{}, BinPack{}, ModelAware{}} {
			nearTieRound(t, rng, pol, cls, caps, alpha, fmt.Sprintf("round %d %s", round, pol.Name()))
		}
	}
}

func nearTieRound(t *testing.T, rng *rand.Rand, pol Policy, cls, caps []int, alpha []float64, label string) {
	t.Helper()
	x := newPlaceIndex(pol, cls, caps, alpha)
	n := len(cls)
	freeNs := make([]float64, n)
	queued := make([]int, n)
	resident := make([]int, n)
	now := 1e6
	horizon := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return now
		case 1:
			return math.Nextafter(now, math.Inf(1))
		case 2:
			return math.Nextafter(now, math.Inf(-1))
		case 3:
			return now + float64(rng.Intn(3))*1e3
		default:
			// A shared base a few ulps apart: distinct horizons whose
			// finish estimates collide after rounding.
			f := now + 5e3
			for s := rng.Intn(4); s > 0; s-- {
				f = math.Nextafter(f, math.Inf(1))
			}
			return f
		}
	}
	for step := 0; step < 40; step++ {
		for u := rng.Intn(n + 1); u > 0; u-- {
			i := rng.Intn(n)
			freeNs[i], queued[i], resident[i] = horizon(), rng.Intn(caps[cls[i]]+2), rng.Intn(caps[cls[i]]+1)
			x.set(i, freeNs[i], queued[i], resident[i])
		}
		work := make([]float64, len(caps))
		for k := range work {
			work[k] = []float64{1e3, 1e9, 3e10}[rng.Intn(3)]
		}
		vs := make([]NodeView, n)
		for i := range vs {
			k := cls[i]
			vs[i] = NodeView{
				Index: i, Capacity: caps[k], FreeNs: freeNs[i], Queued: queued[i],
				QueuedWorkNs: 1e4, JobWorkNs: work[k], Alpha: alpha[k],
			}
			if freeNs[i] > now {
				vs[i].Resident = resident[i]
			}
		}
		want := pol.Pick(JobSpec{}, now, vs)
		got, ok := x.pick(now, work)
		switch {
		case !ok:
			for _, v := range vs {
				if _, ma := pol.(ModelAware); !ma || v.Load() < v.Capacity {
					t.Fatalf("%s step %d: index refused a pick (reference %d)", label, step, want)
				}
			}
		case got != want:
			t.Fatalf("%s step %d at %v: index picked %d (%+v), reference %d (%+v)",
				label, step, now, got, vs[got], want, vs[want])
		}
		if rng.Intn(3) == 0 {
			now = math.Nextafter(now, math.Inf(1))
		} else if rng.Intn(2) == 0 {
			now += float64(rng.Intn(4)) * 1e3
		}
	}
}
