package pipeline

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"opsched/internal/place"
)

// Snapshot is one live reading of the metrics stage: what the scheduler
// can report while jobs are still in flight. Percentiles are nearest-rank
// over everything completed so far, the same formula Result.
// QueuePercentileNs applies to a sealed run.
type Snapshot struct {
	// VirtualNowNs is the latest virtual time the metrics stage has seen —
	// the newest completion or tick.
	VirtualNowNs float64
	// Submitted counts every job offered to admission; Rejected the ones
	// validation refused; ClampedArrivals the out-of-order arrivals pulled
	// forward to the admission clock.
	Submitted       int
	Rejected        int
	ClampedArrivals int
	// Placed / InFlight / Completed track the admitted population.
	Placed    int
	InFlight  int
	Completed int
	// Queue and JCT aggregates over completed jobs, in virtual nanoseconds.
	MeanQueueNs float64
	MeanJCTNs   float64
	QueueP50Ns  float64
	QueueP95Ns  float64
	QueueP99Ns  float64
	JCTP50Ns    float64
	JCTP95Ns    float64
	JCTP99Ns    float64
	// Preemptions and Migrations sum the completed jobs' checkpoint counts.
	Preemptions int
	Migrations  int
	// Per-class serving metrics, all zero while no inference request has
	// completed — a training-only pipeline's snapshot (and its String
	// rendering) is unchanged by the inference job class existing.
	InferCompleted int
	InferSLOMet    int
	InferSLOTotal  int
	InferP50Ns     float64
	InferP99Ns     float64
}

// SLOAttainment is the fraction of completed SLO-carrying inference
// requests that finished within their objective (0 when none carried one).
func (s Snapshot) SLOAttainment() float64 {
	if s.InferSLOTotal == 0 {
		return 0
	}
	return float64(s.InferSLOMet) / float64(s.InferSLOTotal)
}

// String renders the snapshot as one compact log line, virtual times in
// milliseconds — the format opsched-serve and examples/serve print.
func (s Snapshot) String() string {
	line := fmt.Sprintf(
		"t=%.3fms submitted=%d rejected=%d placed=%d inflight=%d done=%d queue[p50=%.3f p95=%.3f p99=%.3f]ms jct[p50=%.3f p95=%.3f p99=%.3f]ms",
		s.VirtualNowNs/1e6, s.Submitted, s.Rejected, s.Placed, s.InFlight, s.Completed,
		s.QueueP50Ns/1e6, s.QueueP95Ns/1e6, s.QueueP99Ns/1e6,
		s.JCTP50Ns/1e6, s.JCTP95Ns/1e6, s.JCTP99Ns/1e6)
	if s.InferCompleted > 0 {
		line += fmt.Sprintf(" inf[done=%d slo=%d/%d p50=%.3f p99=%.3f]ms",
			s.InferCompleted, s.InferSLOMet, s.InferSLOTotal,
			s.InferP50Ns/1e6, s.InferP99Ns/1e6)
	}
	return line
}

// Latency-distribution memory bound: below exactSampleCap samples a
// distribution keeps every sample and its percentiles are exact
// nearest-rank — byte-identical to the sealed report, which is what the
// drain-equality CI gates compare. At the cap the samples fold into a
// fixed log-spaced bucket histogram (histBucketsPerDecade buckets per
// decade spanning [1 ns, 10^histDecades ns], plus an underflow bucket for
// zero/negative values and an overflow bucket), after which memory is O(1)
// per completion forever — the property that keeps a long-lived
// opsched-serve from growing without bound. A histogram quantile reports
// the geometric midpoint of its bucket, so its relative error is bounded
// by half a bucket width: 10^(1/(2·histBucketsPerDecade))-1 ≈ 2.4%.
const (
	exactSampleCap       = 8192
	histBucketsPerDecade = 48
	histDecades          = 12 // 1 ns .. ~17 virtual minutes
	histBucketCount      = histBucketsPerDecade*histDecades + 2
)

// latencyDist is one bounded latency distribution (queue or JCT).
type latencyDist struct {
	n     int
	exact []float64 // ascending; nil once folded into hist
	hist  []uint64  // nil in the exact regime
}

func (d *latencyDist) add(v float64) {
	d.n++
	if d.hist == nil {
		// Insert in order: a snapshot then reads its ranks directly
		// instead of sorting a copy of up to exactSampleCap samples.
		i := sort.SearchFloat64s(d.exact, v)
		d.exact = append(d.exact, 0)
		copy(d.exact[i+1:], d.exact[i:])
		d.exact[i] = v
		if len(d.exact) <= exactSampleCap {
			return
		}
		d.hist = make([]uint64, histBucketCount)
		for _, x := range d.exact {
			d.hist[histBucket(x)]++
		}
		d.exact = nil
		return
	}
	d.hist[histBucket(v)]++
}

// histBucket maps a sample to its bucket: 0 holds everything below 1 ns
// (zero queue delays included), the last bucket everything past the range.
func histBucket(v float64) int {
	if v < 1 {
		return 0
	}
	i := 1 + int(math.Log10(v)*histBucketsPerDecade)
	if i >= histBucketCount-1 {
		return histBucketCount - 1
	}
	return i
}

// histRepr is the value a bucket reports: 0 for the underflow bucket, the
// geometric midpoint of the bucket's bounds otherwise.
func histRepr(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= histBucketCount-1 {
		return math.Pow(10, histDecades)
	}
	return math.Pow(10, (float64(i-1)+0.5)/histBucketsPerDecade)
}

// quantile3 returns the three requested nearest-rank quantiles: exact in
// the sample regime, bucket-resolution (documented bound above) after the
// histogram fold.
func (d *latencyDist) quantile3(a, b, c float64) (float64, float64, float64) {
	if d.hist == nil {
		return nearestRank(d.exact, a), nearestRank(d.exact, b), nearestRank(d.exact, c)
	}
	return d.histRank(a), d.histRank(b), d.histRank(c)
}

func (d *latencyDist) histRank(p float64) float64 {
	if d.n == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(d.n))) - 1
	if k < 0 {
		k = 0
	}
	cum := 0
	for i, c := range d.hist {
		cum += int(c)
		if k < cum {
			return histRepr(i)
		}
	}
	return histRepr(histBucketCount - 1)
}

// liveMetrics is the mutex-guarded accumulator behind Snapshot: admission
// writes submission/rejection/clamp counts, the metrics stage folds in
// placements and completions, and any goroutine may read a Snapshot.
type liveMetrics struct {
	mu        sync.Mutex
	submitted int
	rejected  int
	clamped   int
	placed    int
	completed int

	queue    latencyDist
	jct      latencyDist
	queueSum float64
	jctSum   float64

	// Inference-class accumulators; untouched (and the inferJCT
	// distribution never allocated) in a training-only run.
	inferDone     int
	inferSLOMet   int
	inferSLOTotal int
	inferJCT      latencyDist

	nowNs       float64
	preemptions int
	migrations  int
}

func newLiveMetrics() *liveMetrics { return &liveMetrics{} }

func (m *liveMetrics) noteSubmitted() {
	m.mu.Lock()
	m.submitted++
	m.mu.Unlock()
}

func (m *liveMetrics) noteRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *liveMetrics) noteClamped() {
	m.mu.Lock()
	m.clamped++
	m.mu.Unlock()
}

func (m *liveMetrics) notePlaced(atNs float64) {
	m.mu.Lock()
	m.placed++
	if atNs > m.nowNs {
		m.nowNs = atNs
	}
	m.mu.Unlock()
}

func (m *liveMetrics) noteNow(atNs float64) {
	m.mu.Lock()
	if atNs > m.nowNs {
		m.nowNs = atNs
	}
	m.mu.Unlock()
}

// noteCompleted folds one finished job in and returns the completion count.
func (m *liveMetrics) noteCompleted(j place.PlacedJob) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	jct := j.JCTNs()
	m.queue.add(j.QueueNs)
	m.jct.add(jct)
	m.queueSum += j.QueueNs
	m.jctSum += jct
	if j.Class == place.ClassInference {
		m.inferDone++
		m.inferJCT.add(jct)
		if j.SLONs > 0 {
			m.inferSLOTotal++
			if j.SLOMet {
				m.inferSLOMet++
			}
		}
	}
	if j.FinishNs > m.nowNs {
		m.nowNs = j.FinishNs
	}
	m.preemptions += j.Preemptions
	m.migrations += j.Migrations
	return m.completed
}

// Snapshot computes the current reading. In the exact regime the samples
// are kept sorted as they arrive, so a reading costs O(1); past the
// histogram fold it is O(buckets). A completion costs one ordered insert
// (a binary search and a move of at most exactSampleCap samples) before
// the fold and O(1) after it.
func (m *liveMetrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		VirtualNowNs: m.nowNs,
		Submitted:    m.submitted, Rejected: m.rejected, ClampedArrivals: m.clamped,
		Placed: m.placed, InFlight: m.placed - m.completed, Completed: m.completed,
		Preemptions: m.preemptions, Migrations: m.migrations,
	}
	if n := float64(m.completed); n > 0 {
		s.MeanQueueNs = m.queueSum / n
		s.MeanJCTNs = m.jctSum / n
	}
	s.QueueP50Ns, s.QueueP95Ns, s.QueueP99Ns = m.queue.quantile3(0.50, 0.95, 0.99)
	s.JCTP50Ns, s.JCTP95Ns, s.JCTP99Ns = m.jct.quantile3(0.50, 0.95, 0.99)
	if m.inferDone > 0 {
		s.InferCompleted = m.inferDone
		s.InferSLOMet, s.InferSLOTotal = m.inferSLOMet, m.inferSLOTotal
		s.InferP50Ns, _, s.InferP99Ns = m.inferJCT.quantile3(0.50, 0.50, 0.99)
	}
	return s
}

// nearestRank is the nearest-rank quantile over a sorted sample — the same
// rule Result.QueuePercentileNs uses, so a live p99 at drain equals the
// sealed report's p99.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}
