package place

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Gang-signature wave memoization.
//
// A node's RunWave is a pure, deterministic function of the ordered resident
// job list — per-job (model, priority, weight) on the node's hardware; names
// never influence the numbers. Service-scale streams recur the same gang
// compositions over and over (every wave of k queued LSTMs prices
// identically), so the runtimes memoize RunWave results fleet-wide: every
// node sharing a hardware descriptor shares one runtime and therefore one
// cache, and an S-step wave that re-runs a recurring composition costs one
// simulation per unique composition, not one per node per round.
//
// The cache key is the canonical *gang signature*: the sorted multiset of
// (graph/model, steps-remaining bucket, priority, weight) tuples, prefixed
// by the hardware kind so a CPU wave and a GPU wave of the same jobs never
// share an entry. The signature is order-invariant — the property the
// canonicalization tests pin down — but the multijob engine's arbiters
// break ties on job *index*, so two orderings of the same multiset are not
// guaranteed to simulate identically. The cache therefore stores, under
// each canonical signature, one result per *ordered fingerprint* actually
// simulated: a hit returns the byte-identical result a fresh simulation of
// that exact ordering would produce, unconditionally — which is what keeps
// every determinism and batch-vs-pipeline equivalence gate intact with
// memoization enabled. In practice a canonical composition recurs in one or
// two orderings, so the variant lists stay tiny.

// stepsBucketCap is where steps-remaining buckets stop being exact: buckets
// are exact up to this value, then round up to the next power of two.
const stepsBucketCap = 4

// StepsBucket maps a job's steps-remaining count onto its signature bucket:
// exact through stepsBucketCap, then the next power of two (5-8 → 8, 9-16 →
// 16, ...). RunWave prices one lockstep round, which today is independent
// of how many rounds remain — but the bucket keeps the signature honest for
// step-dependent runtimes (e.g. a warmup-aware cost model) without
// fragmenting the cache across every distinct remaining-step count.
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

// gangTuple renders one job's signature tuple. Weight is normalized the way
// the wave simulators read it (<= 0 means 1), so jobs that price
// identically share a tuple.
func gangTuple(b *strings.Builder, j WaveJob) {
	w := j.Weight
	if w <= 0 {
		w = 1
	}
	b.WriteString(j.Model)
	b.WriteString("|s")
	b.WriteString(strconv.Itoa(StepsBucket(j.StepsLeft)))
	b.WriteString("|p")
	b.WriteString(strconv.Itoa(j.Priority))
	b.WriteString("|w")
	b.WriteString(strconv.FormatFloat(w, 'g', -1, 64))
}

// GangSignature is the canonical, order-invariant signature of a gang wave
// on the given hardware kind: sorted per-job tuples joined under a kind
// prefix. Two waves share a signature exactly when they are the same
// multiset of (model, steps-remaining bucket, priority, weight) on the same
// hardware kind.
func GangSignature(kind string, jobs []WaveJob) string {
	tuples := make([]string, len(jobs))
	var b strings.Builder
	for i, j := range jobs {
		b.Reset()
		gangTuple(&b, j)
		tuples[i] = b.String()
	}
	sort.Strings(tuples)
	b.Reset()
	b.WriteString(kind)
	b.WriteString("::")
	for i, t := range tuples {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(t)
	}
	return b.String()
}

// gangKeys returns the canonical signature and the ordered fingerprint of
// one RunWave input. The fingerprint is the same tuples in input order — the
// exact quantity RunWave's output is a pure function of.
func gangKeys(kind string, jobs []WaveJob) (sig, fp string) {
	tuples := make([]string, len(jobs))
	var b strings.Builder
	for i, j := range jobs {
		b.Reset()
		gangTuple(&b, j)
		tuples[i] = b.String()
	}
	b.Reset()
	b.WriteString(kind)
	b.WriteString("::")
	for i, t := range tuples {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(t)
	}
	fp = b.String()
	sort.Strings(tuples)
	b.Reset()
	b.WriteString(kind)
	b.WriteString("::")
	for i, t := range tuples {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(t)
	}
	return b.String(), fp
}

// memoVariant is one simulated ordering of a canonical gang composition.
// ready is closed once res (or err) is set; a variant found with ready
// still open is an in-flight simulation to join, not to repeat.
type memoVariant struct {
	fp    string
	ready chan struct{}
	res   *WaveResult
	err   error
}

// memoShardCount spreads the cache across independently locked shards so
// concurrent callers missing on different signatures never serialize on
// one lock. Power of two so the hash folds with a mask.
const memoShardCount = 32

// memoShard is one lock's worth of the cache, keyed by canonical signature.
type memoShard struct {
	mu      sync.Mutex
	entries map[string][]*memoVariant
}

// waveMemo is the fleet-wide RunWave cache one runtime carries. It is safe
// for concurrent use: lookups and stores shard their locking by signature
// hash, and simulations are single-flight per ordered fingerprint — when
// several callers miss on the same gang concurrently, exactly one
// simulation runs and everyone else blocks on its result. Cached *WaveResult values are shared across waves and must
// be treated as immutable by every caller.
type waveMemo struct {
	shards [memoShardCount]memoShard
	hits   atomic.Int64
	misses atomic.Int64
}

// shard picks the signature's lock shard.
func (m *waveMemo) shard(sig string) *memoShard {
	h := fnv.New32a()
	h.Write([]byte(sig))
	return &m.shards[h.Sum32()&(memoShardCount-1)]
}

// do returns the cached result of this exact ordered fingerprint under the
// canonical signature, simulating it with sim at most once fleet-wide:
// the first caller per fingerprint runs sim (a miss), concurrent and later
// callers wait on — and share — its result (hits). A failed simulation is
// not cached: its error propagates to every waiter and the next caller
// retries, so one failed simulation can never poison the cache.
func (m *waveMemo) do(sig, fp string, sim func() (*WaveResult, error)) (*WaveResult, error) {
	sh := m.shard(sig)
	sh.mu.Lock()
	for _, v := range sh.entries[sig] {
		if v.fp == fp {
			sh.mu.Unlock()
			<-v.ready
			if v.err != nil {
				return nil, v.err
			}
			m.hits.Add(1)
			return v.res, nil
		}
	}
	v := &memoVariant{fp: fp, ready: make(chan struct{})}
	if sh.entries == nil {
		sh.entries = make(map[string][]*memoVariant)
	}
	sh.entries[sig] = append(sh.entries[sig], v)
	sh.mu.Unlock()
	m.misses.Add(1)

	res, err := sim()
	if err != nil {
		// Unpublish before waking waiters: once ready closes, no new
		// waiter can join the failed variant.
		sh.mu.Lock()
		vs := sh.entries[sig]
		for i := range vs {
			if vs[i] == v {
				sh.entries[sig] = append(vs[:i], vs[i+1:]...)
				break
			}
		}
		sh.mu.Unlock()
		v.err = err
		close(v.ready)
		return nil, err
	}
	v.res = res
	close(v.ready)
	return res, nil
}

// stats reports the cache's hit/miss counters: hits are RunWave calls
// served from (or joined onto) a cached simulation, misses are simulations
// actually run.
func (m *waveMemo) stats() (hits, misses int) {
	return int(m.hits.Load()), int(m.misses.Load())
}

// waveMemoStats is the optional introspection interface memoizing runtimes
// implement; Engine.WaveMemoStats sums it across the fleet.
type waveMemoStats interface {
	WaveMemoStats() (hits, misses int)
}
