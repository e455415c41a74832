package multijob

import (
	"fmt"
	"reflect"
	"testing"

	"opsched/internal/core"
	"opsched/internal/exec"
	"opsched/internal/hw"
	"opsched/internal/nn"
)

// TestPredictedSoloWorkNs pins the placement-facing work estimate: positive,
// deterministic, and monotone in graph size (DCGAN's graph outweighs a
// single LSTM cell-chain's cheapest op set on the same machine only if the
// estimate actually sums per-op predicted work).
func TestPredictedSoloWorkNs(t *testing.T) {
	m := hw.NewKNL()
	g := nn.MustBuild(nn.DCGAN).Graph
	w := PredictedSoloWorkNs(m, g, 0)
	if w <= 0 {
		t.Fatalf("predicted solo work %v, want > 0", w)
	}
	if again := PredictedSoloWorkNs(m, g, 0); again != w {
		t.Fatalf("estimate not deterministic: %v vs %v", again, w)
	}
}

// TestRuntimeJobCopiesShareBaseline: co-training copies of one prepared
// RuntimeJob per model — two or three jobs sharing one core.Runtime, its
// candidate memo and its stored solo baseline — gives a Result deeply
// equal, per-op records included, to co-training fresh jobs that carry no
// baseline, under every arbiter and with varied priorities and weights.
func TestRuntimeJobCopiesShareBaseline(t *testing.T) {
	m := hw.NewKNL()
	mix := []struct {
		model    string
		priority int
		weight   float64
	}{
		{nn.LSTM, 1, 0}, {nn.DCGAN, 3, 2}, {nn.LSTM, 2, 0.5}, {nn.LSTM, 0, 3}, {nn.DCGAN, 1, 1},
	}
	prepared := make(map[string]Job)
	for _, name := range []string{nn.LSTM, nn.DCGAN} {
		model := nn.MustBuild(name)
		j, err := RuntimeJob(model.Name, model.Graph, m, core.AllStrategies())
		if err != nil {
			t.Fatal(err)
		}
		prepared[name] = j
	}
	for _, arbName := range Arbiters() {
		arb, err := NewArbiter(arbName)
		if err != nil {
			t.Fatal(err)
		}
		// Run twice: the second pass starts from warm candidate memos.
		for pass := 0; pass < 2; pass++ {
			shared := make([]Job, len(mix))
			fresh := make([]Job, len(mix))
			for i, x := range mix {
				name := fmt.Sprintf("%s#%d", x.model, i)
				shared[i] = prepared[x.model]
				shared[i].Name, shared[i].Priority, shared[i].Weight = name, x.priority, x.weight
				model := nn.MustBuild(x.model)
				f, err := RuntimeJob(name, model.Graph, m, core.AllStrategies())
				if err != nil {
					t.Fatal(err)
				}
				f.Priority, f.Weight = x.priority, x.weight
				f.base = nil // the pre-baseline path: CoTrain runs it solo
				fresh[i] = f
			}
			got, err := CoTrain(shared, arb, Options{Machine: m})
			if err != nil {
				t.Fatal(err)
			}
			want, err := CoTrain(fresh, arb, Options{Machine: m})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pass %d: shared-runtime co-run differs from fresh jobs:\n%s\nvs\n%s",
					arbName, pass, got.Render(), want.Render())
			}
		}
	}
}

// TestCoTrainOtherMachineRunsSolo: a RuntimeJob co-trained on a machine
// other than the one it was prepared on — or edited after RuntimeJob —
// ignores the stored baseline and matches a job that never had one, with
// the solo time of a fresh solo run on that machine.
func TestCoTrainOtherMachineRunsSolo(t *testing.T) {
	knl := hw.NewKNL()
	slow := hw.NewKNL()
	slow.BWMaxBytesNs, slow.SyncAlpha = 200, 0.05 // same cores: the runtime was tuned for 68
	model := nn.MustBuild(nn.LSTM)
	job, err := RuntimeJob("lstm", model.Graph, knl, core.AllStrategies())
	if err != nil {
		t.Fatal(err)
	}
	if job.base == nil || job.baseline(knl) == nil {
		t.Fatal("RuntimeJob stored no baseline for its own machine")
	}
	other := job
	other.ProfileInterval = 2
	for _, tc := range []struct {
		name string
		job  Job
		m    *hw.Machine
	}{
		{"other machine", job, slow},
		{"equal but distinct machine", job, hw.NewKNL()},
		{"edited interval", other, knl},
	} {
		if tc.job.baseline(tc.m) != nil {
			t.Fatalf("%s: stored baseline applied", tc.name)
		}
		plain := tc.job
		plain.base = nil
		got, err := CoTrain([]Job{tc.job}, nil, Options{Machine: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		want, err := CoTrain([]Job{plain}, nil, Options{Machine: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: co-run with a foreign baseline differs from a baseline-free job", tc.name)
		}
		solo, err := exec.Run(model.Graph, job.Sched, exec.Options{Machine: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		if got.Jobs[0].SoloNs != solo.StepTimeNs {
			t.Fatalf("%s: SoloNs %v, fresh solo run %v", tc.name, got.Jobs[0].SoloNs, solo.StepTimeNs)
		}
		if tc.m == slow && solo.StepTimeNs == job.base.soloNs {
			t.Fatalf("%s: solo times agree across machines, so the test cannot tell them apart", tc.name)
		}
	}
}
