package place

import "math"

// Indexed placement.
//
// For the built-in policies a placement decision is an argmin over the
// fleet, ties on the lower node index. Every quantity the decision reads
// besides the node's free horizon depends only on the node's runtime class
// k and its committed load, so the index files each node in a bucket per
// (k, load) and a pick visits buckets instead of nodes:
//
//   - model-aware: inside bucket (k, l) a node's predicted finish is
//     max(freeNs, now) + work[k]·(1+α[k]·l), so the bucket's best node is
//     its lowest-index already-free node or else its busy node with the
//     least freeNs. Only buckets with l < cap[k] are candidates; when all
//     of them are empty (a saturated fleet) the pick falls back to the
//     reference Views → Policy.Pick path, which prices the overflow term.
//   - binpack and spread: the key is the load alone, so a bucket's best
//     node is its lowest index.
//
// A node's load depends on the clock: an in-flight wave's residents count
// only while its drainNs lies past now. Each node whose horizon is still
// ahead of the index clock sits in a timer heap, and advancing the clock
// re-files every node whose horizon it passes. The clock only moves
// forward; a pick asked for an earlier instant falls back to the
// reference path.

// pickMode is the built-in policy an index answers for.
type pickMode int

const (
	pickSpread pickMode = iota
	pickBinPack
	pickModelAware
)

// nodeBucket holds the nodes of one runtime class at one load level.
type nodeBucket struct {
	// free holds, by node index, the nodes whose horizon is at or before
	// the index clock — under spread and binpack every node of the bucket,
	// since their key ignores the horizon. busy holds, under model-aware
	// only, the nodes still busy past the clock, by (freeNs, index).
	free, busy minHeap[int32]
}

// placeIndex is the engine's per-(runtime class, load) node index.
type placeIndex struct {
	mode  pickMode
	nowNs float64 // index clock

	cls   []int     // per node: runtime class
	caps  []int     // per class: wave capacity
	alpha []float64 // per class: per-co-runner inflation

	// Each node's view as the engine last reported it: the horizon
	// (NodeView.FreeNs), the staged queue, and the in-flight residents
	// that count toward the load while the horizon is ahead of now.
	freeNs   []float64
	queued   []int
	resident []int

	heapOf []*minHeap[int32] // the bucket heap a node sits in
	pos    []int32           // the node's slot there
	tpos   []int32           // the node's slot in timers, -1 when absent

	buckets [][]*nodeBucket // [class][load], grown on demand
	timers  minHeap[int32]  // nodes with freeNs past the clock, by (freeNs, index)
	lo      int             // no bucket below this load holds a node

	byFree  func(a, b int32) bool
	posSlot func(n int32, i int)
}

func byIndex(a, b int32) bool { return a < b }

// newPlaceIndex builds the index for pol over a fleet whose node i has
// runtime class cls[i], every node idle with an empty queue at time zero.
// It returns nil for a policy that is not one of the built-ins.
func newPlaceIndex(pol Policy, cls, caps []int, alpha []float64) *placeIndex {
	var mode pickMode
	switch pol.(type) {
	case Spread:
		mode = pickSpread
	case BinPack:
		mode = pickBinPack
	case ModelAware:
		mode = pickModelAware
	default:
		return nil
	}
	x := &placeIndex{
		mode: mode, nowNs: math.Inf(-1),
		cls: cls, caps: caps, alpha: alpha,
		freeNs:   make([]float64, len(cls)),
		queued:   make([]int, len(cls)),
		resident: make([]int, len(cls)),
		heapOf:   make([]*minHeap[int32], len(cls)),
		pos:      make([]int32, len(cls)),
		tpos:     make([]int32, len(cls)),
		buckets:  make([][]*nodeBucket, len(caps)),
	}
	x.byFree = func(a, b int32) bool {
		if fa, fb := x.freeNs[a], x.freeNs[b]; fa != fb {
			return fa < fb
		}
		return a < b
	}
	x.posSlot = func(n int32, i int) { x.pos[n] = int32(i) }
	x.timers = minHeap[int32]{less: x.byFree, slot: func(n int32, i int) { x.tpos[n] = int32(i) }}
	for i := range cls {
		x.tpos[i] = -1
		x.file(i)
	}
	return x
}

// set records node i's current view and re-files it.
func (x *placeIndex) set(i int, freeNs float64, queued, resident int) {
	x.freeNs[i], x.queued[i], x.resident[i] = freeNs, queued, resident
	x.file(i)
}

// file moves node i to the bucket, side and timer slot its view puts it in
// at the index clock.
func (x *placeIndex) file(i int) {
	busy := x.freeNs[i] > x.nowNs
	load := x.queued[i]
	if busy {
		load += x.resident[i]
	}
	b := x.bucket(x.cls[i], load)
	h := &b.free
	if busy && x.mode == pickModelAware {
		h = &b.busy
	}
	n := int32(i)
	switch cur := x.heapOf[i]; {
	case cur != h:
		if cur != nil {
			cur.remove(int(x.pos[i]))
		}
		x.heapOf[i] = h
		h.push(n)
		if load < x.lo {
			x.lo = load
		}
	case h == &b.busy:
		h.fix(int(x.pos[i])) // the busy side is keyed by the horizon
	}
	switch t := int(x.tpos[i]); {
	case busy && t >= 0:
		x.timers.fix(t)
	case busy:
		x.timers.push(n)
	case t >= 0:
		x.timers.remove(t)
		x.tpos[i] = -1
	}
}

// bucket returns class k's bucket at load, growing the level table.
func (x *placeIndex) bucket(k, load int) *nodeBucket {
	for len(x.buckets[k]) <= load {
		x.buckets[k] = append(x.buckets[k], &nodeBucket{
			free: minHeap[int32]{less: byIndex, slot: x.posSlot},
			busy: minHeap[int32]{less: x.byFree, slot: x.posSlot},
		})
	}
	return x.buckets[k][load]
}

// advance moves the index clock to nowNs, re-filing every node whose
// horizon the clock passes: it becomes free, and its wave's residents stop
// counting toward its load.
func (x *placeIndex) advance(nowNs float64) {
	x.nowNs = nowNs
	for x.timers.len() > 0 {
		n := int(x.timers.top())
		if x.freeNs[n] > nowNs {
			return
		}
		x.file(n)
	}
}

// pick returns the node the index's policy chooses for a job arriving at
// nowNs whose predicted work on runtime class k is work[k] (read only
// under model-aware). ok is false when the index cannot answer — nowNs
// precedes the index clock, or model-aware finds every node full — and
// the caller must take the reference path.
func (x *placeIndex) pick(nowNs float64, work []float64) (node int, ok bool) {
	if !(nowNs >= x.nowNs) {
		return -1, false
	}
	x.advance(nowNs)
	switch x.mode {
	case pickModelAware:
		node = x.soonestFinish(work)
	case pickBinPack:
		if node = x.mostLoaded(); node < 0 {
			node = x.leastLoaded()
		}
	default:
		node = x.leastLoaded()
	}
	return node, node >= 0
}

// finishEst is ModelAware's predicted finish of a job with the given work
// starting at start alongside co co-runners. Both the reference policy and
// the index evaluate it through this one expression, so their keys are
// float-identical.
func finishEst(start, work, alpha float64, co int) float64 {
	return start + work*(1+alpha*float64(co))
}

// soonestFinish is ModelAware.Pick over the non-full buckets: the least
// predicted finish, ties on the lower index; -1 when every node is full.
func (x *placeIndex) soonestFinish(work []float64) int {
	best, bestEst := -1, 0.0
	for k, levels := range x.buckets {
		w, a := work[k], x.alpha[k]
		for l := 0; l < len(levels) && l < x.caps[k]; l++ {
			b := levels[l]
			var n int
			var est float64
			switch {
			case b.free.len() > 0:
				n, est = int(b.free.top()), finishEst(x.nowNs, w, a, l)
			case b.busy.len() > 0:
				n = int(b.busy.top())
				est = finishEst(x.freeNs[n], w, a, l)
			default:
				continue
			}
			if best >= 0 && est > bestEst {
				continue
			}
			n = x.busyTie(&b.busy, 0, n, est, w, a, l)
			if best < 0 || est < bestEst || n < best {
				best, bestEst = n, est
			}
		}
	}
	return best
}

// busyTie returns the lowest index among n and the nodes in the subtree of
// busy-heap slot i whose finish estimate equals est, the bucket's least.
// Float rounding can map distinct horizons to one estimate, so a busy node
// may tie with the free nodes or with the heap's root. The estimate never
// decreases down the heap, so the walk stops at the first larger one.
func (x *placeIndex) busyTie(h *minHeap[int32], i, n int, est, work, alpha float64, co int) int {
	if i >= h.len() {
		return n
	}
	m := int(h.items[i])
	if finishEst(x.freeNs[m], work, alpha, co) > est {
		return n
	}
	if m < n {
		n = m
	}
	n = x.busyTie(h, 2*i+1, n, est, work, alpha, co)
	return x.busyTie(h, 2*i+2, n, est, work, alpha, co)
}

// mostLoaded is BinPack's preferred pick: the most loaded node still
// below its capacity, ties on the lower index; -1 when every node is full.
func (x *placeIndex) mostLoaded() int {
	best, bestLoad := -1, -1
	for k, levels := range x.buckets {
		for l := min(len(levels), x.caps[k]) - 1; l >= bestLoad && l >= 0; l-- {
			if h := &levels[l].free; h.len() > 0 {
				if n := int(h.top()); l > bestLoad || n < best {
					best, bestLoad = n, l
				}
				break
			}
		}
	}
	return best
}

// leastLoaded is Spread's pick and BinPack's fallback: the least loaded
// node, ties on the lower index.
func (x *placeIndex) leastLoaded() int {
	for l := x.lo; ; l++ {
		best, more := -1, false
		for _, levels := range x.buckets {
			if l >= len(levels) {
				continue
			}
			more = true
			if h := &levels[l].free; h.len() > 0 && (best < 0 || int(h.top()) < best) {
				best = int(h.top())
			}
		}
		if best >= 0 || !more {
			x.lo = l
			return best
		}
	}
}
