// Package pqueue provides an indexed binary heap: a priority queue over
// integer-identified items whose priorities can be updated or removed in
// O(log n). RVAQ (§4.3) maintains two of these — PQ_lo^K, the K
// candidate sequences with the highest lower bounds, and PQ_up^¬K, the
// rest ranked by upper bound — refreshing both as every TBClip step
// tightens the bounds.
package pqueue

// Heap is an indexed heap over items 0..n−1. Whether it is a min- or
// max-heap is decided by the less function. The zero value is not
// usable; construct with New.
type Heap struct {
	less func(a, b float64) bool
	prio []float64 // by item id
	heap []int     // heap of item ids
	pos  []int     // item id -> index in heap; -1 if absent
}

// Min returns a min-heap ordering (Peek yields the smallest priority).
func Min(a, b float64) bool { return a < b }

// New builds an empty heap able to hold items 0..capacity−1.
func New(capacity int, less func(a, b float64) bool) *Heap {
	h := &Heap{
		less: less,
		prio: make([]float64, capacity),
		pos:  make([]int, capacity),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of items currently in the heap.
func (h *Heap) Len() int { return len(h.heap) }

// Contains reports whether item id is in the heap.
func (h *Heap) Contains(id int) bool { return id >= 0 && id < len(h.pos) && h.pos[id] >= 0 }

// Push inserts item id with the given priority; if the item is already
// present its priority is updated instead.
func (h *Heap) Push(id int, priority float64) {
	if h.Contains(id) {
		h.Update(id, priority)
		return
	}
	h.prio[id] = priority
	h.pos[id] = len(h.heap)
	h.heap = append(h.heap, id)
	h.up(len(h.heap) - 1)
}

// Update changes item id's priority, restoring heap order.
func (h *Heap) Update(id int, priority float64) {
	if !h.Contains(id) {
		h.Push(id, priority)
		return
	}
	old := h.prio[id]
	h.prio[id] = priority
	i := h.pos[id]
	if h.less(priority, old) {
		h.up(i)
	} else {
		h.down(i)
	}
}

// Peek returns the top item without removing it; ok is false when empty.
func (h *Heap) Peek() (id int, priority float64, ok bool) {
	if len(h.heap) == 0 {
		return 0, 0, false
	}
	id = h.heap[0]
	return id, h.prio[id], true
}

// Pop removes and returns the top item; ok is false when empty.
func (h *Heap) Pop() (id int, priority float64, ok bool) {
	id, priority, ok = h.Peek()
	if ok {
		h.Remove(id)
	}
	return id, priority, ok
}

// Remove deletes item id from the heap (no-op if absent).
func (h *Heap) Remove(id int) {
	if !h.Contains(id) {
		return
	}
	i := h.pos[id]
	last := len(h.heap) - 1
	h.swap(i, last)
	h.heap = h.heap[:last]
	h.pos[id] = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

func (h *Heap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.prio[h.heap[i]], h.prio[h.heap[parent]]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(h.prio[h.heap[l]], h.prio[h.heap[best]]) {
			best = l
		}
		if r < n && h.less(h.prio[h.heap[r]], h.prio[h.heap[best]]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}
