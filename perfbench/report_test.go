package main

import (
	"strings"
	"testing"
	"time"

	"opsched/internal/place"
)

// placed renders a real sealed report for w on c.
func placed(t *testing.T, w place.Workload, c place.Cluster, o place.Options) (*place.Result, string) {
	t.Helper()
	res, err := place.PlaceJobs(w, c, o)
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Render()
}

func TestParseReportTraining(t *testing.T) {
	w := place.MustSynthetic(12, 3, nil, 1e6)
	res, text := placed(t, w, place.Cluster{Nodes: 1, GPUs: 2}, place.Options{Policy: "model-aware"})
	r, err := parseReport(text)
	if err != nil {
		t.Fatal(err)
	}
	if r.jobs != 12 || r.nodes != 3 || len(r.rows) != 12 || r.inference {
		t.Fatalf("parsed %d jobs over %d nodes (%d rows, inference %v)", r.jobs, r.nodes, len(r.rows), r.inference)
	}
	if got, want := r.makespanMs, res.MakespanNs/1e6; got < want-1e-3 || got > want+1e-3 {
		t.Errorf("makespan %.3f ms, result says %.3f", got, want)
	}
	for i, rw := range r.rows {
		if rw.name != res.Jobs[i].Name || rw.node != res.Jobs[i].Node || rw.kind != res.Jobs[i].Kind {
			t.Errorf("row %d = %+v, result job %s on node %d (%s)", i, rw, res.Jobs[i].Name, res.Jobs[i].Node, res.Jobs[i].Kind)
		}
	}
	if _, err := r.check(names(w)); err != nil {
		t.Fatal(err)
	}
}

func TestParseReportServingAndPreemption(t *testing.T) {
	train, err := place.SyntheticSteps(24, 5, nil, 2e6, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := place.MustSyntheticInference(24, 5, nil, 1e6, 20e6).Merge(train)
	res, text := placed(t, w, place.Cluster{Nodes: 1, GPUs: 1}, place.Options{Preempt: "all"})
	if res.Preemptions == 0 || res.InferenceJobs == 0 {
		t.Fatalf("want a serving run that preempts; got %d preemptions, %d inference jobs", res.Preemptions, res.InferenceJobs)
	}
	r, err := parseReport(text)
	if err != nil {
		t.Fatal(err)
	}
	if !r.inference || r.inferRequests != res.InferenceJobs || r.trainingJobs != res.TrainingJobs {
		t.Errorf("inference %v with %d requests / %d training, result has %d / %d",
			r.inference, r.inferRequests, r.trainingJobs, res.InferenceJobs, res.TrainingJobs)
	}
	if r.preemptions != res.Preemptions || r.migrations != res.Migrations || r.firings != res.TriggerFirings {
		t.Errorf("preemptions %d/%d/%d, result has %d/%d/%d", r.preemptions, r.migrations, r.firings,
			res.Preemptions, res.Migrations, res.TriggerFirings)
	}
	infer := 0
	for _, rw := range r.rows {
		if rw.class == "infer" {
			infer++
		}
	}
	if infer != res.InferenceJobs {
		t.Errorf("%d rows of class infer, want %d", infer, res.InferenceJobs)
	}
	canon, err := w.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.check(names(canon)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckReportViolations(t *testing.T) {
	w := place.MustSynthetic(6, 1, nil, 1e6)
	_, text := placed(t, w, place.Cluster{GPUs: 2}, place.Options{})
	all := names(w)
	row := func(name string) string {
		for _, ln := range strings.Split(text, "\n") {
			if f := strings.Fields(ln); len(f) > 0 && f[0] == name {
				return ln
			}
		}
		t.Fatalf("no row for %s", name)
		return ""
	}

	r, err := parseReport(text)
	if err != nil {
		t.Fatal(err)
	}
	if missing, err := r.check(append(all, "ghost")); err == nil || missing != 1 {
		t.Errorf("an accepted job absent from the report: missing %d, err %v", missing, err)
	}
	if _, err := r.check(all[1:]); err == nil {
		t.Error("a report row no one submitted passed")
	}

	fields := strings.Fields(row(all[2]))
	slow := strings.Replace(text, row(all[2]), strings.Replace(row(all[2]), fields[9], "   0.50x", 1), 1)
	if r, err := parseReport(slow); err != nil {
		t.Fatal(err)
	} else if _, err := r.check(all); err == nil || !strings.Contains(err.Error(), "slowdown") {
		t.Errorf("slowdown below 1 passed: %v", err)
	}

	dup := strings.Replace(text, row(all[1]), row(all[0]), 1)
	if r, err := parseReport(dup); err != nil {
		t.Fatal(err)
	} else if _, err := r.check(all); err == nil {
		t.Error("a job completing twice passed")
	}

	lines := strings.Split(text, "\n")
	if _, err := parseReport(strings.Join(lines[:len(lines)-3], "\n")); err == nil {
		t.Error("a truncated report parsed")
	}
	if _, err := parseReport("not a report\n\n\n"); err == nil {
		t.Error("garbage parsed")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: newSample must sort
		}
		return xs
	}
	cases := []struct {
		n            int
		p            float64
		want         float64
		wantBeyond   int
		wantReliable bool
	}{
		{10, 0.99, 10, 0, false},
		{100, 0.99, 99, 1, false},
		{100, 0.50, 50, 50, true},
		{1000, 0.99, 990, 10, true},
		{1001, 0.99, 991, 10, true},
		{1, 0.99, 1, 0, false},
	}
	for _, c := range cases {
		s := newSample(seq(c.n))
		if got := s.quantile(c.p); got != c.want {
			t.Errorf("n=%d p%.0f = %v, want %v", c.n, 100*c.p, got, c.want)
		}
		if got := s.beyond(c.p); got != c.wantBeyond || (got >= 10) != c.wantReliable {
			t.Errorf("n=%d p%.0f rests on %d samples beyond it, want %d", c.n, 100*c.p, got, c.wantBeyond)
		}
	}
	if got := newSample(nil).quantile(0.99); got != 0 {
		t.Errorf("empty sample p99 = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1..3 = %v, want 2", got)
	}
}

func TestSelfTimesReconcile(t *testing.T) {
	tr := &tracer{open: -1}
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	tr.spans = []span{
		{layer: lReplay, parent: -1, start: at(0), end: at(100)},
		{layer: lDecode, parent: 0, start: at(10), end: at(20)},
		{layer: lEventMiss, parent: 0, start: at(30), end: at(70)},
		{layer: lPick, parent: 2, start: at(40), end: at(50)}, // nested: not the event's self time
		{layer: lPick, parent: 2, start: at(55), end: at(60)},
	}
	self := tr.selfTimes()
	want := map[layer]time.Duration{lReplay: at(50), lDecode: at(10), lEventMiss: at(25), lPick: at(15)}
	var sum time.Duration
	for l, d := range self {
		sum += d
		if d != want[layer(l)] {
			t.Errorf("%s self %v, want %v", layerNames[l], d, want[layer(l)])
		}
	}
	if sum != at(100) {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
	if got := covered([][2]time.Duration{{at(5), at(9)}, {at(0), at(6)}, {at(20), at(21)}}); got != at(10) {
		t.Errorf("covered = %v, want 10ms (overlaps merged)", got)
	}
}
