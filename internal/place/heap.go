package place

// minHeap is a binary min-heap over a typed slice. It replaces
// container/heap on the engine's hot paths: no element is boxed into an
// interface on push or pop, so the event loop and the placement index
// allocate only when a heap's backing array grows.
//
// less orders the elements. slot, when non-nil, is told every element's new
// position after each move, which lets a caller that tracks positions
// remove or re-key an element in the middle of the heap (remove, fix).
type minHeap[T any] struct {
	items []T
	less  func(a, b T) bool
	slot  func(x T, i int)
}

func (h *minHeap[T]) len() int { return len(h.items) }

// top is the least element; the heap must be non-empty.
func (h *minHeap[T]) top() T { return h.items[0] }

func (h *minHeap[T]) push(x T) {
	h.items = append(h.items, x)
	h.set(len(h.items)-1, x)
	h.up(len(h.items) - 1)
}

// pop removes and returns the least element; the heap must be non-empty.
func (h *minHeap[T]) pop() T { return h.remove(0) }

// remove deletes and returns the element at position i.
func (h *minHeap[T]) remove(i int) T {
	x := h.items[i]
	last := len(h.items) - 1
	if i != last {
		h.set(i, h.items[last])
	}
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	if i != last {
		h.fix(i)
	}
	return x
}

// fix restores the heap order after the element at position i changed
// its key.
func (h *minHeap[T]) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *minHeap[T]) set(i int, x T) {
	h.items[i] = x
	if h.slot != nil {
		h.slot(x, i)
	}
}

func (h *minHeap[T]) up(i int) {
	x := h.items[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(x, h.items[p]) {
			break
		}
		h.set(i, h.items[p])
		i = p
	}
	h.set(i, x)
}

// down sifts the element at position i toward the leaves and reports
// whether it moved.
func (h *minHeap[T]) down(i int) bool {
	x := h.items[i]
	start, n := i, len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(h.items[r], h.items[c]) {
			c = r
		}
		if !h.less(h.items[c], x) {
			break
		}
		h.set(i, h.items[c])
		i = c
	}
	h.set(i, x)
	return i > start
}
