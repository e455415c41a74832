package place

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"opsched/internal/core"
	"opsched/internal/gpu"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
)

// TestStepsBucket pins the bucket boundaries: exact through stepsBucketCap,
// then the next power of two — so a 5-step and an 8-step job share a
// signature while a 4-step job does not.
func TestStepsBucket(t *testing.T) {
	cases := []struct{ steps, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 3}, {4, 4},
		{5, 8}, {6, 8}, {8, 8},
		{9, 16}, {16, 16},
		{17, 32}, {32, 32}, {33, 64},
	}
	for _, tc := range cases {
		if got := StepsBucket(tc.steps); got != tc.want {
			t.Errorf("StepsBucket(%d) = %d, want %d", tc.steps, got, tc.want)
		}
	}
}

// fingerprintRow is one row of the memo-key tables: two RunWave inputs and
// whether they must share a memo entry.
type fingerprintRow struct {
	name  string
	kindA string
	jobsA []WaveJob
	kindB string
	jobsB []WaveJob
	equal bool
}

func fpJob(model string, steps, prio int, weight float64) WaveJob {
	return WaveJob{Model: model, StepsLeft: steps, Priority: prio, Weight: weight}
}

// checkFingerprintRows checks every row twice — on the fingerprint bytes,
// and as memo entries (equal rows share one simulation, distinct rows
// simulate fresh).
func checkFingerprintRows(t *testing.T, cases []fingerprintRow) {
	t.Helper()
	for _, tc := range cases {
		a := appendFingerprint(nil, tc.kindA, tc.jobsA)
		b := appendFingerprint(nil, tc.kindB, tc.jobsB)
		if bytes.Equal(a, b) != tc.equal {
			t.Errorf("%s: fingerprints %q vs %q, want equal=%v", tc.name, a, b, tc.equal)
		}
		m := &waveMemo{}
		sims := 0
		sim := func() (*WaveResult, error) { sims++; return &WaveResult{TotalNs: float64(sims)}, nil }
		ra, _ := m.do(tc.kindA, tc.jobsA, sim)
		rb, _ := m.do(tc.kindB, tc.jobsB, sim)
		wantSims := 2
		if tc.equal {
			wantSims = 1
		}
		if sims != wantSims || (ra == rb) != tc.equal {
			t.Errorf("%s: %d simulations (shared result %v), want %d", tc.name, sims, ra == rb, wantSims)
		}
	}
}

// TestGangSignatureCanonicalization is the memo-key table: a gang's key (its
// ordered fingerprint) separates hardware kinds, normalizes weights the way
// the wave simulators read them, ignores job names, buckets steps, and
// distinguishes everything that prices differently.
func TestGangSignatureCanonicalization(t *testing.T) {
	j := fpJob
	base := []WaveJob{j("lstm", 1, 0, 1), j("dcgan", 3, 5, 2), j("lstm", 2, 0, 1)}
	checkFingerprintRows(t, []fingerprintRow{
		{"names ignored", KindCPU, []WaveJob{{Name: "a", Model: "lstm", StepsLeft: 1}},
			KindCPU, []WaveJob{{Name: "z", Model: "lstm", StepsLeft: 1}}, true},
		{"cpu vs gpu", KindCPU, base, KindGPU, base, false},
		{"weight defaulted", KindCPU, []WaveJob{j("lstm", 1, 0, 0)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1)}, true},
		{"negative weight defaulted", KindCPU, []WaveJob{j("lstm", 1, 0, -3)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1)}, true},
		{"NaN weights equal", KindCPU, []WaveJob{j("lstm", 1, 0, math.NaN())},
			KindCPU, []WaveJob{j("lstm", 1, 0, -math.NaN())}, true},
		{"weight matters", KindCPU, []WaveJob{j("lstm", 1, 0, 2)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1)}, false},
		{"priority matters", KindCPU, []WaveJob{j("lstm", 1, 5, 1)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1)}, false},
		{"negative priority", KindCPU, []WaveJob{j("lstm", 1, -1, 1)},
			KindCPU, []WaveJob{j("lstm", 1, 1, 1)}, false},
		{"model matters", KindCPU, []WaveJob{j("lstm", 1, 0, 1)},
			KindCPU, []WaveJob{j("dcgan", 1, 0, 1)}, false},
		{"model boundary", KindCPU, []WaveJob{j("ab", 1, 0, 1), j("c", 1, 0, 1)},
			KindCPU, []WaveJob{j("a", 1, 0, 1), j("bc", 1, 0, 1)}, false},
		{"same bucket", KindCPU, []WaveJob{j("lstm", 5, 0, 1)},
			KindCPU, []WaveJob{j("lstm", 8, 0, 1)}, true},
		{"bucket boundary", KindCPU, []WaveJob{j("lstm", 4, 0, 1)},
			KindCPU, []WaveJob{j("lstm", 5, 0, 1)}, false},
		{"multiset not set", KindCPU, []WaveJob{j("lstm", 1, 0, 1), j("lstm", 1, 0, 1)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1)}, false},
	})
}

// TestGangKeysFingerprintOrder: the key keeps the input order, because the
// arbiters break ties on job index — one ordering recurs onto one memo entry,
// while every other ordering of the same multiset simulates fresh.
func TestGangKeysFingerprintOrder(t *testing.T) {
	j := fpJob
	base := []WaveJob{j("lstm", 1, 0, 1), j("dcgan", 3, 5, 2), j("lstm", 2, 0, 1)}
	checkFingerprintRows(t, []fingerprintRow{
		{"same ordering", KindCPU, base,
			KindCPU, []WaveJob{base[0], base[1], base[2]}, true},
		{"permutation", KindCPU, base,
			KindCPU, []WaveJob{base[2], base[0], base[1]}, false},
		{"reverse", KindCPU, base,
			KindCPU, []WaveJob{base[2], base[1], base[0]}, false},
		{"swapped pair", KindCPU, []WaveJob{j("dcgan", 1, 0, 1), j("lstm", 1, 0, 1)},
			KindCPU, []WaveJob{j("lstm", 1, 0, 1), j("dcgan", 1, 0, 1)}, false},
	})
}

// memoTestRuntimes builds one memoized and one memo-free runtime pair (CPU
// and GPU) over identical hardware, sharing nothing.
func memoTestRuntimes(t *testing.T, noMemo bool) (cpu, gpuRt NodeRuntime) {
	t.Helper()
	arb, err := multijob.NewArbiter("priority")
	if err != nil {
		t.Fatal(err)
	}
	graphs := make(map[string]*graph.Graph)
	graphFor := func(model string) *graph.Graph {
		if g, ok := graphs[model]; ok {
			return g
		}
		g := nn.MustBuild(model).Graph
		graphs[model] = g
		return g
	}
	rts := buildRuntimes([]Node{{CPU: hw.NewKNL()}, {GPU: gpu.NewP100()}},
		arb, core.AllStrategies(), graphFor, noMemo)
	return rts[0], rts[1]
}

// TestWaveMemoHitEquivalence is the memoization-hit property: replaying a
// sequence of wave compositions — recurrences and permutations included —
// through a memoized runtime returns results deeply equal to a fresh
// memo-free simulation of the same sequence, and the recurrences actually
// hit the cache.
func TestWaveMemoHitEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs CoTrain waves per composition")
	}
	memoCPU, memoGPU := memoTestRuntimes(t, false)
	freshCPU, freshGPU := memoTestRuntimes(t, true)

	j := func(model string, prio int) WaveJob {
		return WaveJob{Name: model + "#x", Model: model, Priority: prio, Weight: 1, StepsLeft: 1}
	}
	ab := []WaveJob{j(nn.LSTM, 0), j(nn.DCGAN, 1)}
	ba := []WaveJob{j(nn.DCGAN, 1), j(nn.LSTM, 0)}
	waves := [][]WaveJob{
		ab, ab, // straight recurrence: must hit
		ba,     // same multiset, new ordering: must simulate fresh
		ba, ab, // both orderings now cached
		{j(nn.LSTM, 0)},
		{j(nn.LSTM, 0)},
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 5; i++ {
		waves = append(waves, waves[rng.Intn(len(waves))])
	}
	for _, pair := range []struct {
		name        string
		memo, fresh NodeRuntime
	}{{"cpu", memoCPU, freshCPU}, {"gpu", memoGPU, freshGPU}} {
		for i, wjs := range waves {
			got, err := pair.memo.RunWave(wjs)
			if err != nil {
				t.Fatalf("%s wave %d memoized: %v", pair.name, i, err)
			}
			want, err := pair.fresh.RunWave(wjs)
			if err != nil {
				t.Fatalf("%s wave %d fresh: %v", pair.name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s wave %d: memoized result %+v != fresh %+v", pair.name, i, got, want)
			}
		}
		hits, misses := pair.memo.(waveMemoStats).WaveMemoStats()
		if hits == 0 || misses == 0 {
			t.Errorf("%s memo counters hits=%d misses=%d, want both positive", pair.name, hits, misses)
		}
		if hits+misses != len(waves) {
			t.Errorf("%s memo counted %d lookups, want %d", pair.name, hits+misses, len(waves))
		}
		fh, fm := pair.fresh.(waveMemoStats).WaveMemoStats()
		if fh != 0 || fm != 0 {
			t.Errorf("%s memo-free runtime reports hits=%d misses=%d, want zeros", pair.name, fh, fm)
		}
	}
}

// TestWaveMemoOnePerFingerprint: requests cycling over many distinct
// fingerprints — two orderings each of several compositions — run exactly
// one simulation per fingerprint, every later request returns that
// simulation's result pointer, and the counters add up.
func TestWaveMemoOnePerFingerprint(t *testing.T) {
	m := &waveMemo{}
	const (
		rounds   = 32
		comps    = 8
		variants = 2 // orderings per composition
	)
	wave := func(c, v int) []WaveJob {
		a := WaveJob{Model: fmt.Sprintf("m%d", c), StepsLeft: 1}
		b := WaveJob{Model: "lstm", StepsLeft: 1, Priority: c}
		if v == 0 {
			return []WaveJob{a, b}
		}
		return []WaveJob{b, a}
	}
	sims := 0
	first := make([]*WaveResult, comps*variants)
	for r := 0; r < rounds; r++ {
		for c := 0; c < comps; c++ {
			for v := 0; v < variants; v++ {
				res, err := m.do(KindGPU, wave(c, v), func() (*WaveResult, error) {
					sims++
					return &WaveResult{TotalNs: float64(c*10 + v)}, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				i := c*variants + v
				if r == 0 {
					first[i] = res
				} else if res != first[i] {
					t.Fatalf("round %d fingerprint %d got a different result pointer", r, i)
				}
				if res.TotalNs != float64(c*10+v) {
					t.Fatalf("fingerprint %d returned another wave's result %v", i, res.TotalNs)
				}
			}
		}
	}
	if want := comps * variants; sims != want {
		t.Fatalf("%d simulations for %d distinct fingerprints", sims, want)
	}
	hits, misses := m.stats()
	if misses != comps*variants || hits+misses != rounds*comps*variants {
		t.Fatalf("counters: hits=%d misses=%d, want misses=%d and hits+misses=%d",
			hits, misses, comps*variants, rounds*comps*variants)
	}
}

// TestWaveMemoHitAllocs: a hit builds its key in the memo's reused buffer
// and looks it up without converting it to a string, so it allocates
// nothing.
func TestWaveMemoHitAllocs(t *testing.T) {
	m := &waveMemo{}
	jobs := []WaveJob{{Model: nn.LSTM, StepsLeft: 3, Weight: 2}, {Model: InferKey(nn.DCGAN, 4), Priority: 7}}
	want := &WaveResult{TotalNs: 1}
	sim := func() (*WaveResult, error) { return want, nil }
	if _, err := m.do(KindCPU, jobs, sim); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if res, _ := m.do(KindCPU, jobs, sim); res != want {
			t.Fatal("hit returned another result")
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hit allocates %v objects, want 0", allocs)
	}
}

// TestWaveMemoErrorNotCached: a failed simulation propagates its error but
// is never stored — the next request re-simulates and can succeed.
func TestWaveMemoErrorNotCached(t *testing.T) {
	m := &waveMemo{}
	jobs := []WaveJob{{Model: "x", StepsLeft: 1}}
	boom := fmt.Errorf("transient")
	if _, err := m.do(KindCPU, jobs, func() (*WaveResult, error) { return nil, boom }); err != boom {
		t.Fatalf("want the simulation error, got %v", err)
	}
	res, err := m.do(KindCPU, jobs, func() (*WaveResult, error) { return &WaveResult{TotalNs: 1}, nil })
	if err != nil || res.TotalNs != 1 {
		t.Fatalf("retry after failure: res=%v err=%v", res, err)
	}
	hits, misses := m.stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("counters after failure+retry: hits=%d misses=%d, want 0/2", hits, misses)
	}
}
