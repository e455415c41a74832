package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opsched/internal/place"
)

// Serving load shape. The load is open-loop: every request has a due
// time and is timed from it, so a stall shows as latency on the requests
// queued behind it. At most loadConns requests are in flight, over at
// most loadConns keep-alive connections.
const (
	loadConns     = 2
	fixedRPS      = 1000.0 // offered rate of the open-loop phase
	fixedShare    = 0.4    // share of --seconds the open-loop phase lasts
	snapshotEvery = 100 * time.Millisecond
	metricsEvery  = time.Second
	// requestTimeout turns a hung service into failed requests, not a
	// hung benchmark.
	requestTimeout = 10 * time.Second

	// The saturation phase sends saturateJobs jobs as fast as loadConns
	// connections go, on each of saturateReps fresh services, with a
	// snapshot every burstSnapshotEvery and a metrics scrape every
	// burstMetricsEvery submissions.
	saturateJobs       = 20000
	saturateReps       = 5
	burstSnapshotEvery = 200
	burstMetricsEvery  = 2000
)

// Request kinds of a load schedule.
const (
	kindSubmit = iota
	kindSnapshot
	kindMetrics
)

// req is one scheduled request.
type req struct {
	due  time.Duration // offset from the schedule start
	kind int
	name string // submitted job's name
	body []byte
}

// outcome is one request's measurement.
type outcome struct {
	late    time.Duration // send start minus due
	latency time.Duration // response fully read minus due
	service time.Duration // response fully read minus send start
	status  int           // 0 on a transport error
}

// schedule turns jobs into an open-loop load: each job is due at its
// arrival offset, with periodic snapshot and metrics scrapes interleaved,
// in due order.
func schedule(jobs place.Workload) []req {
	out := make([]req, 0, len(jobs)+len(jobs)/50)
	for _, j := range jobs {
		out = append(out, req{due: time.Duration(j.ArrivalNs), kind: kindSubmit, name: j.Name, body: submitBody(j)})
	}
	span := out[len(out)-1].due
	for t := snapshotEvery; t < span; t += snapshotEvery {
		out = append(out, req{due: t, kind: kindSnapshot})
	}
	for t := metricsEvery; t < span; t += metricsEvery {
		out = append(out, req{due: t, kind: kindMetrics})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// burst is a closed-loop load of n jobs of the serving mix: everything is
// due at once, so each connection sends its next request as soon as the
// previous one is answered. Scrapes are interleaved by count.
func burst(n int, seed uint64) ([]req, error) {
	jobs, err := serveJobs(n, seed, fixedRPS)
	if err != nil {
		return nil, err
	}
	out := make([]req, 0, n+n/burstSnapshotEvery+n/burstMetricsEvery)
	for i, j := range jobs {
		out = append(out, req{kind: kindSubmit, name: j.Name, body: submitBody(j)})
		if (i+1)%burstSnapshotEvery == 0 {
			out = append(out, req{kind: kindSnapshot})
		}
		if (i+1)%burstMetricsEvery == 0 {
			out = append(out, req{kind: kindMetrics})
		}
	}
	return out, nil
}

// client talks to one opsched-serve -http instance.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     loadConns,
		MaxIdleConnsPerHost: loadConns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		r.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// snapshot is the subset of GET /snapshot the benchmark reads.
type snapshot struct {
	Submitted int
	Placed    int
}

func (c *client) snapshot() (snapshot, error) {
	code, b, err := c.do(http.MethodGet, "/snapshot", nil)
	if err != nil {
		return snapshot{}, err
	}
	if code != http.StatusOK {
		return snapshot{}, fmt.Errorf("GET /snapshot: status %d", code)
	}
	var s snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return snapshot{}, fmt.Errorf("GET /snapshot: %w", err)
	}
	return s, nil
}

// drive plays the schedule from now: loadConns workers take the requests
// in due order, each waiting for its request's due time. It returns every
// request's outcome and the time until the last answer.
func (c *client) drive(sched []req) ([]outcome, time.Duration) {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				r := sched[i]
				if wait := r.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				var code int
				var err error
				switch r.kind {
				case kindSubmit:
					code, _, err = c.do(http.MethodPost, "/jobs", r.body)
				case kindSnapshot:
					code, _, err = c.do(http.MethodGet, "/snapshot", nil)
				case kindMetrics:
					code, _, err = c.do(http.MethodGet, "/metrics", nil)
				}
				done := time.Since(start)
				if err != nil {
					code = 0
				}
				out[i] = outcome{late: sent - r.due, latency: done - r.due, service: done - sent, status: code}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// loadStats summarizes a driven schedule.
type loadStats struct {
	accepted             []string // names of the 202-accepted jobs
	non2xx               int      // non-2xx responses and transport errors, all kinds
	requests             int
	submitMs             sample // submit latency from due time
	submitServiceNs      sample // submit latency from send start
	snapshotNs, metricNs sample
	lateMaxMs            float64
}

func summarize(sched []req, out []outcome) loadStats {
	var st loadStats
	var sub, subSvc, snap, met []float64
	for i, r := range sched {
		o := out[i]
		st.requests++
		if o.status < 200 || o.status > 299 {
			st.non2xx++
		}
		if l := float64(o.late) / 1e6; l > st.lateMaxMs {
			st.lateMaxMs = l
		}
		switch r.kind {
		case kindSubmit:
			if o.status == http.StatusAccepted {
				st.accepted = append(st.accepted, r.name)
			}
			sub = append(sub, float64(o.latency)/1e6)
			subSvc = append(subSvc, float64(o.service))
		case kindSnapshot:
			snap = append(snap, float64(o.service))
		case kindMetrics:
			met = append(met, float64(o.service))
		}
	}
	st.submitMs, st.submitServiceNs = newSample(sub), newSample(subSvc)
	st.snapshotNs, st.metricNs = newSample(snap), newSample(met)
	return st
}

// httpService is a running opsched-serve -http with its client.
type httpService struct {
	*service
	c *client
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (w workload) serveFlags(addr string) []string {
	return append([]string{"-http", addr}, w.flags()...)
}

// startHTTP launches the service and waits until it answers /healthz.
func startHTTP(ctx context.Context, e env, w workload) (*httpService, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s, err := launch(ctx, e.serveBin, w.serveFlags(addr))
	if err != nil {
		return nil, err
	}
	hs := &httpService{service: s, c: newClient(addr)}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, err := hs.c.do(http.MethodGet, "/healthz", nil)
		if err == nil && code == http.StatusOK {
			return hs, nil
		}
		if time.Now().After(deadline) {
			hs.stop()
			return nil, fmt.Errorf("opsched-serve on %s never became healthy: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// drain posts /drain and waits for the sealed report.
func (hs *httpService) drain() (exit, error) {
	code, _, err := hs.c.do(http.MethodPost, "/drain", nil)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST /drain: status %d", code)
	}
	hs.c.close()
	if err != nil {
		hs.stop()
		return exit{}, err
	}
	return hs.wait()
}

// stop kills a service abandoned on an error path and reaps it.
func (hs *httpService) stop() {
	hs.c.close()
	_ = hs.cmd.Process.Kill() // already-exited is fine: wait reaps either way
	_, _ = hs.wait()
}

// serveSetup times setupReps cold starts of the HTTP service: launch, one
// POST per model, then /snapshot polls until all four are placed.
func serveSetup(ctx context.Context, e env, w workload, t *tally) (float64, error) {
	jobs, err := setupJobs(e.seed)
	if err != nil {
		return 0, err
	}
	var walls []float64
	for i := 0; i < setupReps; i++ {
		hs, err := startHTTP(ctx, e, w)
		if err != nil {
			return 0, err
		}
		var accepted []string
		for _, j := range jobs {
			t.attempted++
			code, _, err := hs.c.do(http.MethodPost, "/jobs", submitBody(j))
			if err != nil || code != http.StatusAccepted {
				t.fail(1, fmt.Errorf("set-up POST /jobs: status %d, %v", code, err))
				continue
			}
			accepted = append(accepted, j.Name)
		}
		for {
			s, err := hs.c.snapshot()
			if err != nil {
				hs.stop()
				return 0, err
			}
			if s.Placed >= len(accepted) {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		walls = append(walls, time.Since(hs.start).Seconds())
		x, err := hs.drain()
		if err != nil {
			return 0, err
		}
		checkReport(t, x.report, accepted)
	}
	return median(walls), nil
}

// serveResult is what the end-to-end serving runs measured.
type serveResult struct {
	setupS float64
	fixed  *fixedRun // the open-loop fixed-rate service
	// Medians over the saturation services.
	jobsPerS, cpuMsPerJob, rssMB float64
}

// record counts a driven schedule's requests and failures in t.
func record(t *tally, st loadStats) {
	t.attempted += st.requests
	if st.non2xx > 0 {
		t.fail(st.non2xx, fmt.Errorf("%d of %d requests got a non-2xx answer or a transport error", st.non2xx, st.requests))
	}
}

// runServe is the untraced end-to-end measurement of serve-mixed:
// set-up; one open-loop service at fixedRPS for fixedShare of --seconds
// (accept latency and the sealed report's figures); then saturateReps
// fresh services each sent saturateJobs jobs back to back over loadConns
// connections and drained (throughput, CPU and memory per
// job, medians over the repetitions).
func runServe(ctx context.Context, e env, w workload, t *tally) (*serveResult, error) {
	res := &serveResult{}
	var err error
	if res.setupS, err = serveSetup(ctx, e, w, t); err != nil {
		return nil, err
	}
	if res.fixed, err = fixedPhase(ctx, e, w, t, fixedShare*e.seconds); err != nil {
		return nil, err
	}
	var rates, cpus, rss []float64
	for i := 0; i < saturateReps; i++ {
		sched, err := burst(saturateJobs, e.seed*saturateReps+uint64(i))
		if err != nil {
			return nil, err
		}
		hs, err := startHTTP(ctx, e, w)
		if err != nil {
			return nil, err
		}
		out, elapsed := hs.c.drive(sched)
		st := summarize(sched, out)
		x, err := hs.drain()
		if err != nil {
			return nil, err
		}
		record(t, st)
		if rep := checkReport(t, x.report, st.accepted); rep != nil {
			cpus = append(cpus, float64(x.cpu)/1e6/float64(rep.jobs))
		}
		rates = append(rates, float64(len(st.accepted))/elapsed.Seconds())
		rss = append(rss, x.rssMB)
	}
	res.jobsPerS, res.cpuMsPerJob, res.rssMB = median(rates), median(cpus), median(rss)
	return res, nil
}

// fixedRun is the fixed-rate service's measurement.
type fixedRun struct {
	load       loadStats
	makespanMs float64
}

// fixedJobs is the fixed-rate phase's job stream for a dur-second phase.
func fixedJobs(seed uint64, dur float64) (place.Workload, error) {
	return serveJobs(int(fixedRPS*dur), seed, fixedRPS)
}

// fixedPhase offers fixedRPS open-loop for dur seconds to a fresh service,
// then drains it.
func fixedPhase(ctx context.Context, e env, w workload, t *tally, dur float64) (*fixedRun, error) {
	jobs, err := fixedJobs(e.seed, dur)
	if err != nil {
		return nil, err
	}
	sched := schedule(jobs)
	hs, err := startHTTP(ctx, e, w)
	if err != nil {
		return nil, err
	}
	out, _ := hs.c.drive(sched)
	st := summarize(sched, out)
	x, err := hs.drain()
	if err != nil {
		return nil, err
	}
	record(t, st)
	f := &fixedRun{load: st}
	if rep := checkReport(t, x.report, st.accepted); rep != nil {
		f.makespanMs = rep.makespanMs
	}
	return f, nil
}
