package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"opsched/internal/place"
)

// heldOutSeed is reserved for checking a performance claim on inputs the
// change was not tuned on: never use it while developing a change.
const heldOutSeed = 9001

// workload is one named benchmark input set and the opsched-serve flags it
// runs under. Replay workloads feed a generated CSV trace with -trace;
// serve-mixed drives the HTTP API.
type workload struct {
	name  string
	serve bool // HTTP serving rather than trace replay

	// The fleet and policy flags opsched-serve runs under; the rest stay
	// at their defaults.
	nodes, gpus     int
	policy, preempt string

	// Replay trace shape: place.SyntheticSteps(jobs, seed, all models,
	// gapNs, maxSteps).
	jobs     int
	gapNs    float64
	maxSteps int
}

var workloads = []workload{
	{
		// Placement and the pipeline handoff dominate: single-step jobs on a
		// 2k-node mixed fleet keep wave pricing memo-warm.
		name:  "replay-fleet",
		nodes: 1000, gpus: 1000, policy: "model-aware",
		jobs: 25000, gapNs: 1e5, maxSteps: 1,
	},
	{
		// Wave pricing dominates: multi-step jobs on 8 nodes under
		// preemption miss the wave memo and run the paper's per-op
		// concurrency control through multijob.CoTrain. Model-aware
		// placement keeps the KNL nodes below saturation: under spread
		// their waves grow until one replay's cost swings with the seed.
		name:  "replay-preempt",
		nodes: 4, gpus: 4, policy: "model-aware", preempt: "priority+deadline+load",
		jobs: 32000, gapNs: 5e7, maxSteps: 8,
	},
	{
		// HTTP decode, admission backpressure, inference batching,
		// snapshots and exposition on a GPU-only fleet.
		name:  "serve-mixed",
		serve: true,
		nodes: 0, gpus: 16,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// flags is the fleet and policy part of the opsched-serve command line.
func (w workload) flags() []string {
	f := []string{"-nodes", strconv.Itoa(w.nodes), "-gpus", strconv.Itoa(w.gpus)}
	if w.policy != "" {
		f = append(f, "-policy", w.policy)
	}
	if w.preempt != "" {
		f = append(f, "-preempt", w.preempt)
	}
	return f
}

// replayFlags is the exact opsched-serve command line of a replay of trace.
func (w workload) replayFlags(trace string) []string {
	return append([]string{"-trace", trace, "-unit", "1ns"}, w.flags()...)
}

// replayJobs generates the workload's trace jobs from seed.
func (w workload) replayJobs(seed uint64) (place.Workload, error) {
	return place.SyntheticSteps(w.jobs, seed, nil, w.gapNs, w.maxSteps)
}

// setupJobs is the four-row input of a set-up run: one job of each model
// (Synthetic cycles through the four), so the service profiles and prices
// every model once.
func setupJobs(seed uint64) (place.Workload, error) {
	return place.Synthetic(4, seed, nil, 1e5)
}

// traceCSV renders jobs as the CSV opsched-serve -trace reads with -unit
// 1ns: arrival and deadline in nanoseconds, printed with every digit so
// the file round-trips the generated floats exactly.
func traceCSV(jobs place.Workload) []byte {
	var b bytes.Buffer
	b.WriteString("name,model,arrival,priority,steps,deadline\n")
	for _, j := range jobs {
		b.WriteString(j.Name)
		b.WriteByte(',')
		b.WriteString(j.Model)
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(j.ArrivalNs, 'g', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(j.Priority))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(j.Steps))
		b.WriteByte(',')
		if j.DeadlineNs > 0 {
			b.WriteString(strconv.FormatFloat(j.DeadlineNs, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// Serving mix: of every five requests four are SLO-carrying inference and
// one is a 1-3 step training job.
const (
	inferShare   = 0.8
	inferSLOMs   = 50
	trainMaxStep = 3
)

// serveJobs generates n requests of the serving mix from seed, arriving
// at a mean rate of rps per second: SyntheticInference's bursty
// two-phase arrivals merged with Synthetic training arrivals, the merged
// stream rescaled so its mean rate is rps while keeping its burst shape.
func serveJobs(n int, seed uint64, rps float64) (place.Workload, error) {
	nInf := int(float64(n) * inferShare)
	nTrain := n - nInf
	// Nominal gaps in the same unit; both streams span about n ms.
	inf, err := place.SyntheticInference(nInf, seed, nil, float64(n)/float64(nInf)*1e6, inferSLOMs*1e6)
	if err != nil {
		return nil, err
	}
	train, err := place.SyntheticSteps(nTrain, seed, nil, float64(n)/float64(nTrain)*1e6, trainMaxStep)
	if err != nil {
		return nil, err
	}
	w := inf.Merge(train)
	span := w[len(w)-1].ArrivalNs
	if span <= 0 {
		return nil, fmt.Errorf("serve schedule spans no time")
	}
	scale := float64(n) / rps * 1e9 / span
	for i := range w {
		w[i].ArrivalNs *= scale
		if w[i].DeadlineNs > 0 {
			w[i].DeadlineNs *= scale
		}
	}
	return w, nil
}

// submitBody is the POST /jobs JSON for j; deadlines and SLOs are sent
// relative to submission, as the API takes them.
func submitBody(j place.JobSpec) []byte {
	req := map[string]any{"name": j.Name, "model": j.Model, "priority": j.Priority, "steps": j.Steps}
	if j.Inference() {
		req["class"] = place.ClassInference
		req["slo_ms"] = j.SLONs / 1e6
	}
	if j.DeadlineNs > 0 {
		req["deadline_ms"] = (j.DeadlineNs - j.ArrivalNs) / 1e6
	}
	b, _ := json.Marshal(req) // a map of strings and numbers always marshals
	return b
}
