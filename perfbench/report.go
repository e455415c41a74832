package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// report is the part of opsched-serve's sealed placement report (the
// text place.Result.Render prints to stdout) the benchmark checks and
// reads its decision-quality metrics from.
type report struct {
	jobs, nodes int
	rows        []row

	makespanMs float64

	preemptions, migrations, firings int

	inference                   bool
	inferP50Ms, inferP99Ms      float64
	inferRequests, trainingJobs int
}

// row is one job line of the report.
type row struct {
	name, kind, class string
	node              int
	queueMs, slowdown float64
}

var (
	headerRe  = regexp.MustCompile(`^placement: (\d+) jobs over (\d+) nodes, `)
	footerRe  = regexp.MustCompile(`^makespan ([0-9.]+) ms, mean jct [0-9.]+ ms, mean queue [0-9.]+ ms, fairness `)
	inferRe   = regexp.MustCompile(`^inference: (\d+) requests \((\d+) training jobs\), .* jct p50 ([0-9.]+) ms p99 ([0-9.]+) ms`)
	preemptRe = regexp.MustCompile(`, preemptions (\d+) \((\d+) migrated, (\d+) trigger firings\)`)
)

// parseReport reads a sealed report. It fails on anything that does not
// have the layout Render produces, so a truncated or garbled report is a
// correctness failure, not a silently short one.
func parseReport(text string) (*report, error) {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) < 3 {
		return nil, fmt.Errorf("report: %d lines, want at least 3", len(lines))
	}
	m := headerRe.FindStringSubmatch(lines[0])
	if m == nil {
		return nil, fmt.Errorf("report: bad header %q", lines[0])
	}
	r := &report{}
	r.jobs, _ = strconv.Atoi(m[1])
	r.nodes, _ = strconv.Atoi(m[2])
	cols := strings.Fields(lines[1])
	serving := contains(cols, "class")
	preempted := contains(cols, "pre")
	if len(lines) < 2+r.jobs+r.nodes+1 {
		return nil, fmt.Errorf("report: %d lines for %d jobs over %d nodes", len(lines), r.jobs, r.nodes)
	}
	r.rows = make([]row, 0, r.jobs)
	for i, ln := range lines[2 : 2+r.jobs] {
		rw, err := parseRow(ln, serving, preempted)
		if err != nil {
			return nil, fmt.Errorf("report: job row %d: %w", i, err)
		}
		r.rows = append(r.rows, rw)
	}
	for _, ln := range lines[2+r.jobs : 2+r.jobs+r.nodes] {
		if !strings.HasPrefix(strings.TrimSpace(ln), "node ") {
			return nil, fmt.Errorf("report: bad node line %q", ln)
		}
	}
	footer := lines[2+r.jobs+r.nodes:]
	m = footerRe.FindStringSubmatch(footer[0])
	if m == nil {
		return nil, fmt.Errorf("report: bad footer %q", footer[0])
	}
	r.makespanMs, _ = strconv.ParseFloat(m[1], 64)
	last := footer[len(footer)-1]
	if serving {
		if len(footer) != 2 {
			return nil, fmt.Errorf("report: serving footer has %d lines, want 2", len(footer))
		}
		m = inferRe.FindStringSubmatch(last)
		if m == nil {
			return nil, fmt.Errorf("report: bad inference line %q", last)
		}
		r.inference = true
		r.inferRequests, _ = strconv.Atoi(m[1])
		r.trainingJobs, _ = strconv.Atoi(m[2])
		r.inferP50Ms, _ = strconv.ParseFloat(m[3], 64)
		r.inferP99Ms, _ = strconv.ParseFloat(m[4], 64)
	} else if len(footer) != 1 {
		return nil, fmt.Errorf("report: footer has %d lines, want 1", len(footer))
	}
	if m = preemptRe.FindStringSubmatch(last); m != nil {
		r.preemptions, _ = strconv.Atoi(m[1])
		r.migrations, _ = strconv.Atoi(m[2])
		r.firings, _ = strconv.Atoi(m[3])
	} else if preempted {
		return nil, fmt.Errorf("report: preemption columns without a preemption summary")
	}
	return r, nil
}

// parseRow splits one job line: name, model, node, hw, wave, arrive,
// queue, corun, jct, slowdown, deadline, then class/batch/slo on a
// serving report and pre/path on a preempting one. The path may contain
// spaces ("n0/cpu -> n3/gpu"), so it is whatever follows "pre".
func parseRow(ln string, serving, preempted bool) (row, error) {
	f := strings.Fields(ln)
	want := 11
	if serving {
		want += 3
	}
	if preempted {
		want += 2
	}
	if len(f) < want {
		return row{}, fmt.Errorf("%d fields, want %d in %q", len(f), want, ln)
	}
	var rw row
	var err error
	rw.name, rw.kind = f[0], f[3]
	if rw.node, err = strconv.Atoi(f[2]); err != nil {
		return row{}, fmt.Errorf("node %q: %w", f[2], err)
	}
	if rw.queueMs, err = strconv.ParseFloat(f[6], 64); err != nil {
		return row{}, fmt.Errorf("queue %q: %w", f[6], err)
	}
	if rw.slowdown, err = strconv.ParseFloat(strings.TrimSuffix(f[9], "x"), 64); err != nil {
		return row{}, fmt.Errorf("slowdown %q: %w", f[9], err)
	}
	rw.class = "train"
	if serving {
		rw.class = f[11]
	}
	return rw, nil
}

// check verifies the report's invariants against the jobs the service
// accepted: every accepted job completes exactly once and nothing else
// appears, slowdown >= 1, queueing delay >= 0, and the queue-delay and
// inference JCT percentiles are ordered. It returns the number of
// accepted jobs missing from the report and the first violation found.
func (r *report) check(accepted []string) (missing int, err error) {
	if len(r.rows) != r.jobs {
		return 0, fmt.Errorf("report lists %d rows under a %d-job header", len(r.rows), r.jobs)
	}
	seen := make(map[string]int, len(r.rows))
	for _, rw := range r.rows {
		seen[rw.name]++
	}
	for _, name := range accepted {
		switch seen[name] {
		case 0:
			missing++
		case 1:
		default:
			return missing, fmt.Errorf("job %s completes %d times", name, seen[name])
		}
	}
	if missing > 0 {
		return missing, fmt.Errorf("%d of %d accepted jobs missing from the report", missing, len(accepted))
	}
	if len(r.rows) != len(accepted) {
		return 0, fmt.Errorf("report has %d jobs, %d were accepted", len(r.rows), len(accepted))
	}
	queue := make([]float64, len(r.rows))
	for i, rw := range r.rows {
		if rw.slowdown < 1 {
			return 0, fmt.Errorf("job %s: slowdown %.2fx < 1", rw.name, rw.slowdown)
		}
		if rw.queueMs < 0 {
			return 0, fmt.Errorf("job %s: queue %.3f ms < 0", rw.name, rw.queueMs)
		}
		queue[i] = rw.queueMs
	}
	q := newSample(queue)
	if p50, p95, p99 := q.quantile(0.50), q.quantile(0.95), q.quantile(0.99); !(p50 <= p95 && p95 <= p99) {
		return 0, fmt.Errorf("queue percentiles out of order: p50 %.3f p95 %.3f p99 %.3f", p50, p95, p99)
	}
	if r.inference && r.inferP50Ms > r.inferP99Ms {
		return 0, fmt.Errorf("inference jct p50 %.3f ms > p99 %.3f ms", r.inferP50Ms, r.inferP99Ms)
	}
	return 0, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// sample is a sorted set of measurements.
type sample []float64

func newSample(xs []float64) sample {
	s := append(sample(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank p-quantile (p in (0,1]): the smallest value
// with at least p of the sample at or below it. 0 for an empty sample.
func (s sample) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// beyond is how many samples lie strictly above the nearest-rank
// p-quantile's rank: a p99 over n samples rests on n - ceil(0.99 n) of
// them, so it is only worth reporting once that count reaches ten.
func (s sample) beyond(p float64) int {
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return len(s) - k
}

// median is the middle value, or the mean of the two middle values of an
// even-sized sample; 0 for an empty one.
func median(xs []float64) float64 {
	s := newSample(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
