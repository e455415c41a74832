package place

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"opsched/internal/core"
	"opsched/internal/multijob"
	"opsched/internal/nn"
)

// freshWave prices a wave the way the CPU runtime did before it kept
// prepared jobs: per wave job a newly profiled runtime with an empty
// candidate memo and no stored baseline, so CoTrain runs it solo afresh.
func freshWave(t *testing.T, c *cpuRuntime, jobs []WaveJob) *WaveResult {
	t.Helper()
	mj := make([]multijob.Job, len(jobs))
	for i, wj := range jobs {
		g := c.graphFor(wj.Model)
		rt := core.New(c.m, c.cfg)
		if err := rt.Profile(g); err != nil {
			t.Fatal(err)
		}
		job := multijob.Job{Name: wj.Name, Graph: g, Sched: rt, ProfileInterval: c.cfg.Interval}
		job.Priority = wj.Priority
		job.Weight = wj.Weight
		if wj.Class == ClassInference {
			w := wj.Weight
			if w <= 0 {
				w = 1
			}
			job.Weight = w * inferenceWeightBoost
		}
		mj[i] = job
	}
	res, err := multijob.CoTrain(mj, c.arb, multijob.Options{Machine: c.m})
	if err != nil {
		t.Fatal(err)
	}
	out := &WaveResult{TotalNs: res.TotalNs, Jobs: make([]WaveJobResult, len(jobs))}
	for i, jr := range res.Jobs {
		out.Jobs[i] = WaveJobResult{SoloNs: jr.SoloNs, MakespanNs: jr.MakespanNs, Slowdown: jr.Slowdown}
	}
	return out
}

// TestCPURuntimePreparedOracle: pricing a wave from the runtime's prepared
// per-model jobs — one shared core.Runtime and one stored solo baseline per
// model — is deeply equal to pricing it from fresh jobs, under every
// arbiter, over seeded waves that mix all four models, repeat a model two
// or three times, vary priorities and weights and carry an inference slot.
// The memo is off so every wave really simulates on the prepared jobs.
func TestCPURuntimePreparedOracle(t *testing.T) {
	models := nn.Names()
	waves := [][]WaveJob{
		{{Model: nn.LSTM}, {Model: nn.LSTM, Priority: 2}, {Model: nn.LSTM, Weight: 3}},
		{{Model: nn.DCGAN, Weight: 2}, {Model: nn.DCGAN}, {Model: InferKey(nn.DCGAN, 2), Class: ClassInference}},
		{{Model: nn.ResNet50, Priority: 1}, {Model: nn.InceptionV3}, {Model: nn.ResNet50, Weight: 0.5}},
	}
	rng := rand.New(rand.NewSource(15))
	for len(waves) < 7 {
		var w []WaveJob
		for n := 2 + rng.Intn(3); len(w) < n; {
			wj := WaveJob{Model: models[rng.Intn(len(models))], Priority: rng.Intn(4), Weight: float64(rng.Intn(4))}
			if rng.Intn(5) == 0 {
				wj.Model = InferKey(nn.LSTM, 1+rng.Intn(3))
				wj.Class = ClassInference
			}
			w = append(w, wj)
			if len(w) < n && rng.Intn(2) == 0 {
				twin := wj
				twin.Priority, twin.Weight = rng.Intn(4), float64(rng.Intn(3))
				w = append(w, twin) // a second job of the same model
			}
		}
		waves = append(waves, w)
	}
	for _, arb := range []string{"fair", "priority", "srwf"} {
		e, err := NewEngine(Cluster{Nodes: 1}, Options{Arbiter: arb, noWaveMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		c := e.rts[0].(*cpuRuntime)
		for i, w := range waves {
			for k := range w {
				w[k].Name = fmt.Sprintf("w%d/j%d", i, k)
				w[k].StepsLeft = 1
			}
			got, err := c.RunWave(w)
			if err != nil {
				t.Fatalf("%s wave %d: %v", arb, i, err)
			}
			if want := freshWave(t, c, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s wave %d %+v: prepared result %+v != fresh %+v", arb, i, w, got, want)
			}
		}
		if len(c.jobs) < len(models) {
			t.Fatalf("%s: %d prepared jobs, want one per model at least", arb, len(c.jobs))
		}
	}
}
