package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"opsched/internal/obs"
	"opsched/internal/pipeline"
	"opsched/internal/place"
	"opsched/internal/tracefile"
)

// layer names a span: one call into one layer's public function.
type layer int

const (
	lReplay    layer = iota // the whole replay; its self time is unattributed
	lDecode                 // tracefile.Reader.Next
	lAdmit                  // JobSpec.Check and Engine.Admit
	lViews                  // Engine.ViewsInto
	lPick                   // Policy.Pick
	lCommit                 // Engine.Place
	lEventHit               // Engine.ProcessNextEvent, wave memo hit or no pricing
	lEventMiss              // Engine.ProcessNextEvent that missed the wave memo
	lFold                   // Engine.Finish
	lRender                 // Result.Render
	numLayers
)

var layerNames = [numLayers]string{"unattributed", "decode", "admit", "place.views", "place.pick", "place.commit", "event.hit", "event.miss", "fold", "render"}

// span is one timed call. Times are offsets from the tracer's start.
type span struct {
	layer      layer
	parent     int32
	start, end time.Duration
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// same replay code runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
	open  int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: l, parent: t.open, start: time.Since(t.t0)})
	t.open = id
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.spans[id].parent
}

// relabel moves a closed span to another layer (an event found to have
// missed the memo once it returned).
func (t *tracer) relabel(id int32, l layer) {
	if t != nil {
		t.spans[id].layer = l
	}
}

// selfTimes sums each layer's self time: every span's duration minus the
// part of it its child spans cover.
func (t *tracer) selfTimes() [numLayers]time.Duration {
	kids := make(map[int32][][2]time.Duration)
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	var self [numLayers]time.Duration
	for i, s := range t.spans {
		self[s.layer] += s.end - s.start - covered(kids[int32(i)])
	}
	return self
}

// covered is the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var cur [2]time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			cur = v
		case v[0] <= cur[1]:
			if v[1] > cur[1] {
				cur[1] = v[1]
			}
		default:
			total += cur[1] - cur[0]
			cur = v
		}
	}
	if len(iv) > 0 {
		total += cur[1] - cur[0]
	}
	return total
}

// source yields the jobs of one replay: a tracefile.Reader, or a slice for
// the serving mix (which has no trace file to decode).
type source interface {
	Next() (place.JobSpec, error)
}

type sliceSource struct {
	jobs place.Workload
	i    int
}

func (s *sliceSource) Next() (place.JobSpec, error) {
	if s.i >= len(s.jobs) {
		return place.JobSpec{}, io.EOF
	}
	s.i++
	return s.jobs[s.i-1], nil
}

// engineConfig is the cluster and options opsched-serve builds for the
// workload: its flags, default arbiter and worker count, and an attached
// metrics registry, as the service always has one.
func (w workload) engineConfig(reg *obs.Registry) (place.Cluster, place.Options) {
	return place.Cluster{Nodes: w.nodes, GPUs: w.gpus},
		place.Options{Policy: w.policy, Preempt: w.preempt, Obs: &obs.Observer{Metrics: reg}}
}

// driveStats is what one in-process replay counted.
type driveStats struct {
	jobs, events int
	memoHits     int
	memoMisses   int
	render       string
	res          *place.Result
	wall         time.Duration // first Next to Render returned
}

// drive replays src through a fresh engine with the exact call sequence
// of the pipeline's stages run serially: admission (Check, clamp to the
// admission clock), then execution (retire events strictly before the
// arrival, Admit, ViewsInto), placement (Pick), execution again (Place);
// at the end of input, retire everything, Finish and Render. tr, when
// non-nil, gets a span around every call into a layer.
func drive(c place.Cluster, o place.Options, src source, tr *tracer) (*driveStats, error) {
	eng, err := place.NewEngine(c, o)
	if err != nil {
		return nil, err
	}
	pol, err := place.NewPolicy(o.PolicyName())
	if err != nil {
		return nil, err
	}
	vs := make([]place.NodeView, eng.Nodes())
	st := &driveStats{}
	step := func() error {
		var m0 int
		if tr != nil {
			_, m0 = eng.WaveMemoStats()
		}
		s := tr.begin(lEventHit)
		fins, err := eng.ProcessNextEvent()
		tr.end(s)
		if err != nil {
			return err
		}
		if tr != nil {
			if _, m1 := eng.WaveMemoStats(); m1 > m0 {
				tr.relabel(s, lEventMiss)
			}
		}
		st.events++
		for _, ji := range fins {
			_ = eng.Job(ji) // the completion event execution emits to metrics
		}
		return nil
	}
	t0 := time.Now()
	root := tr.begin(lReplay)
	clock := 0.0
	for seq := 0; ; seq++ {
		s := tr.begin(lDecode)
		j, err := src.Next()
		tr.end(s)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		s = tr.begin(lAdmit)
		err = j.Check(seq)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("job %d rejected: %w", seq, err)
		}
		if j.ArrivalNs < clock {
			j.ArrivalNs = clock
		} else {
			clock = j.ArrivalNs
		}
		at := j.ArrivalNs
		for {
			evNs, has := eng.NextEventNs()
			if !has || evNs >= at {
				break
			}
			if err := step(); err != nil {
				return nil, err
			}
		}
		s = tr.begin(lAdmit)
		ji, err := eng.Admit(j)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin(lViews)
		eng.ViewsInto(ji, at, vs)
		tr.end(s)
		s = tr.begin(lPick)
		node := pol.Pick(eng.Spec(ji), at, vs)
		tr.end(s)
		s = tr.begin(lCommit)
		err = eng.Place(ji, node, at)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		st.jobs++
	}
	for eng.Completed() < eng.Admitted() {
		if _, has := eng.NextEventNs(); !has {
			return nil, fmt.Errorf("stalled with %d of %d jobs done", eng.Completed(), eng.Admitted())
		}
		if err := step(); err != nil {
			return nil, err
		}
	}
	s := tr.begin(lFold)
	st.res = eng.Finish()
	tr.end(s)
	s = tr.begin(lRender)
	st.render = st.res.Render()
	tr.end(s)
	tr.end(root)
	st.wall = time.Since(t0)
	st.memoHits, st.memoMisses = eng.WaveMemoStats()
	return st, nil
}

// csvSource opens a trace the way opsched-serve's flags configure it.
func csvSource(csv []byte) (source, error) {
	return tracefile.NewReader(bytes.NewReader(csv), tracefile.Options{TimeUnit: time.Nanosecond})
}

// goDelta is the Go runtime's allocation and GC activity over a call.
type goDelta struct {
	allocs, bytes, gcs uint64
}

func measureGo(f func() error) (goDelta, error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return goDelta{allocs: b.Mallocs - a.Mallocs, bytes: b.TotalAlloc - a.TotalAlloc, gcs: uint64(b.NumGC - a.NumGC)}, err
}

// pipeStats is what the in-process pipeline run measured.
type pipeStats struct {
	submitWaitNs float64 // mean wall time one Submit blocks
	snapshotNs   float64 // mean Snapshot call
	stageNs      map[string]float64
	depthMax     map[string]float64
	expoNs       float64 // mean WritePrometheus of the run's registry
	expoBytes    int
	render       string
}

var (
	pipeStages   = []string{"admission", "placement", "execution", "metrics"}
	pipeChannels = []string{"submit", "admission", "placement", "events"}
)

// Snapshot and exposition sampling in the in-process pipeline run.
const (
	pipeSnapshotEvery = 1000 // Submit calls between timed Snapshot calls
	expoScrapes       = 20   // timed WritePrometheus calls after the run
)

// runPipeline feeds src through pipeline.New the way opsched-serve does
// (metrics registry attached, a snapshot every 10 completions), timing
// Submit and Snapshot from outside and reading the pipeline's own
// stage-latency histograms and channel-depth gauges from the registry.
func runPipeline(ctx context.Context, c place.Cluster, o place.Options, reg *obs.Registry, src source) (*pipeStats, error) {
	ctx, cancel := context.WithCancel(ctx) // unwinds the stages on an early return
	defer cancel()
	p, err := pipeline.New(ctx, pipeline.Config{
		Cluster: c, Options: o, SnapshotEvery: 10,
		OnSnapshot: func(s pipeline.Snapshot) { _ = s.String() },
	})
	if err != nil {
		return nil, err
	}
	depthVec := reg.GaugeVec("opsched_pipeline_channel_depth", "", "channel")
	depth := make([]*obs.Gauge, len(pipeChannels))
	for i, ch := range pipeChannels {
		depth[i] = depthVec.With(ch)
	}
	st := &pipeStats{stageNs: map[string]float64{}, depthMax: map[string]float64{}}
	var submitWait, snapWait time.Duration
	n, snaps := 0, 0
	for {
		j, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := p.Submit(j); err != nil {
			return nil, err
		}
		submitWait += time.Since(t0)
		n++
		for i, g := range depth {
			if v := g.Value(); v > st.depthMax[pipeChannels[i]] {
				st.depthMax[pipeChannels[i]] = v
			}
		}
		if n%pipeSnapshotEvery == 0 {
			t0 = time.Now()
			_ = p.Snapshot()
			snapWait += time.Since(t0)
			snaps++
		}
	}
	p.Close()
	res, err := p.Wait()
	if err != nil {
		return nil, err
	}
	st.render = res.Render()
	if n > 0 {
		st.submitWaitNs = float64(submitWait) / float64(n)
	}
	if snaps > 0 {
		st.snapshotNs = float64(snapWait) / float64(snaps)
	}
	stage := reg.HistogramVec("opsched_pipeline_stage_ns", "", obs.ExpBuckets(100, 10, 8), "stage")
	for _, s := range pipeStages {
		if h := stage.With(s); h.Count() > 0 {
			st.stageNs[s] = h.Sum() / float64(h.Count())
		}
	}
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < expoScrapes; i++ {
		buf.Reset()
		if err := reg.WritePrometheus(&buf); err != nil {
			return nil, err
		}
	}
	st.expoNs = float64(time.Since(t0)) / expoScrapes
	st.expoBytes = buf.Len()
	return st, nil
}
