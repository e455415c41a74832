package place

import (
	"encoding/binary"
	"math"
)

// Wave memoization.
//
// A node's RunWave is a pure, deterministic function of the ordered resident
// job list — per-job (model, priority, weight) on the node's hardware; names
// never influence the numbers. Service-scale streams recur the same gang
// compositions over and over (every wave of k queued LSTMs prices
// identically), so the runtimes memoize RunWave results fleet-wide: every
// node sharing a hardware descriptor shares one runtime and therefore one
// memo, and an S-step wave that re-runs a recurring composition costs one
// simulation per unique composition, not one per node per round.
//
// The memo key is the wave's *ordered fingerprint*: the hardware kind, then
// each job's (model, steps-remaining bucket, priority, normalized weight)
// in input order. The key keeps the order because the multijob engine's
// arbiters break ties on job index, so two orderings of the same jobs are
// not guaranteed to simulate identically; a hit therefore returns the
// byte-identical result a fresh simulation of that exact ordering would
// produce, which keeps every determinism and batch-vs-pipeline equivalence
// gate intact with memoization on. The engine driving a runtime is
// single-threaded, so the memo is a plain map, and the fingerprint is built
// into one byte buffer the memo reuses: a lookup allocates nothing, only a
// miss's insert copies the key.

// stepsBucketCap is where steps-remaining buckets stop being exact: buckets
// are exact up to this value, then round up to the next power of two.
const stepsBucketCap = 4

// StepsBucket maps a job's steps-remaining count onto its fingerprint
// bucket: exact through stepsBucketCap, then the next power of two (5-8 →
// 8, 9-16 → 16, ...). RunWave prices one lockstep round, which today is
// independent of how many rounds remain — but the bucket keeps the key
// honest for step-dependent runtimes (e.g. a warmup-aware cost model)
// without fragmenting the memo across every distinct remaining-step count.
func StepsBucket(stepsLeft int) int {
	if stepsLeft <= 1 {
		return 1
	}
	if stepsLeft <= stepsBucketCap {
		return stepsLeft
	}
	b := stepsBucketCap * 2
	for b < stepsLeft {
		b <<= 1
	}
	return b
}

// appendFingerprint appends the ordered fingerprint of one RunWave input on
// the given hardware kind to dst. Every field is length-prefixed or fixed
// width, so two inputs share a fingerprint exactly when they agree on the
// kind and, job by job, on model, steps bucket, priority and weight. The
// weight is normalized the way the wave simulators read it — <= 0 means 1,
// and every NaN is one value — so jobs that price identically share a key.
func appendFingerprint(dst []byte, kind string, jobs []WaveJob) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(kind)))
	dst = append(dst, kind...)
	for _, j := range jobs {
		w := j.Weight
		if w <= 0 {
			w = 1
		} else if w != w {
			w = math.NaN()
		}
		dst = binary.AppendUvarint(dst, uint64(len(j.Model)))
		dst = append(dst, j.Model...)
		dst = binary.AppendUvarint(dst, uint64(StepsBucket(j.StepsLeft)))
		dst = binary.AppendVarint(dst, int64(j.Priority))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
	}
	return dst
}

// waveMemo is the fleet-wide RunWave cache one runtime carries: a map from
// ordered fingerprint to result. It is not safe for concurrent use — one
// engine goroutine drives every runtime it owns. Cached *WaveResult values
// are shared across waves and must be treated as immutable by every caller.
type waveMemo struct {
	m            map[string]*WaveResult
	key          []byte // fingerprint scratch, reused by every lookup
	hits, misses int
}

// do returns the cached result of this exact ordered wave, simulating it
// with sim on the first request (a miss); later requests are hits. A failed
// simulation is not cached: its error propagates and the next request
// simulates again, so one failure can never poison the memo.
func (m *waveMemo) do(kind string, jobs []WaveJob, sim func() (*WaveResult, error)) (*WaveResult, error) {
	m.key = appendFingerprint(m.key[:0], kind, jobs)
	if res, ok := m.m[string(m.key)]; ok {
		m.hits++
		return res, nil
	}
	m.misses++
	res, err := sim()
	if err != nil {
		return nil, err
	}
	if m.m == nil {
		m.m = make(map[string]*WaveResult)
	}
	m.m[string(m.key)] = res
	return res, nil
}

// stats reports the memo's counters: hits are RunWave calls served from a
// cached simulation, misses are simulations actually run.
func (m *waveMemo) stats() (hits, misses int) {
	return m.hits, m.misses
}

// waveMemoStats is the optional introspection interface memoizing runtimes
// implement; Engine.WaveMemoStats sums it across the fleet.
type waveMemoStats interface {
	WaveMemoStats() (hits, misses int)
}
