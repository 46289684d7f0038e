package pqueue

import (
	"math/rand"
	"sort"
	"testing"
)

func TestMinHeapBasics(t *testing.T) {
	h := New(5, Min)
	h.Push(0, 3)
	h.Push(1, 1)
	h.Push(2, 2)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	id, p, ok := h.Peek()
	if !ok || id != 1 || p != 1 {
		t.Fatalf("Peek = %d,%v,%v", id, p, ok)
	}
	order := []int{}
	for {
		id, _, ok := h.Pop()
		if !ok {
			break
		}
		order = append(order, id)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order = %v", order)
		}
	}
}

func TestMaxHeap(t *testing.T) {
	h := New(3, func(a, b float64) bool { return a > b })
	h.Push(0, 3)
	h.Push(1, 7)
	h.Push(2, 5)
	if id, p, _ := h.Peek(); id != 1 || p != 7 {
		t.Fatalf("Peek = %d,%v", id, p)
	}
}

func TestUpdateMovesItem(t *testing.T) {
	h := New(4, Min)
	for i := 0; i < 4; i++ {
		h.Push(i, float64(i+10))
	}
	h.Update(3, 1) // becomes smallest
	if id, _, _ := h.Peek(); id != 3 {
		t.Fatalf("Peek after update = %d", id)
	}
	h.Update(3, 100) // becomes largest
	if id, _, _ := h.Peek(); id != 0 {
		t.Fatalf("Peek after second update = %d", id)
	}
	if h.prio[3] != 100 {
		t.Fatalf("priority of 3 = %v", h.prio[3])
	}
}

func TestPushExistingUpdates(t *testing.T) {
	h := New(2, Min)
	h.Push(0, 5)
	h.Push(0, 1)
	if h.Len() != 1 {
		t.Fatalf("duplicate push grew the heap: %d", h.Len())
	}
	if _, p, _ := h.Peek(); p != 1 {
		t.Fatalf("priority not updated: %v", p)
	}
}

func TestRemove(t *testing.T) {
	h := New(5, Min)
	for i := 0; i < 5; i++ {
		h.Push(i, float64(5-i))
	}
	h.Remove(4) // current minimum
	if id, _, _ := h.Peek(); id != 3 {
		t.Fatalf("Peek after remove = %d", id)
	}
	h.Remove(4) // absent: no-op
	if h.Len() != 4 {
		t.Fatalf("Len = %d", h.Len())
	}
	if h.Contains(4) {
		t.Fatal("removed item still contained")
	}
}

func TestUpdateAbsentInserts(t *testing.T) {
	h := New(2, Min)
	h.Update(1, 4)
	if !h.Contains(1) || h.Len() != 1 {
		t.Fatal("Update on absent item should insert")
	}
}

func TestEmptyOps(t *testing.T) {
	h := New(3, Min)
	if _, _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty")
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty")
	}
	if h.Contains(-1) || h.Contains(99) {
		t.Fatal("Contains out of range")
	}
}

// Property: against a sorted-slice oracle under random operations.
func TestPropAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 60
	for trial := 0; trial < 50; trial++ {
		h := New(n, Min)
		oracle := map[int]float64{}
		for op := 0; op < 400; op++ {
			id := rng.Intn(n)
			switch rng.Intn(4) {
			case 0, 1:
				p := rng.Float64() * 100
				h.Push(id, p)
				oracle[id] = p
			case 2:
				h.Remove(id)
				delete(oracle, id)
			case 3:
				if len(oracle) == 0 {
					continue
				}
				gotID, gotP, ok := h.Peek()
				if !ok {
					t.Fatal("heap empty but oracle is not")
				}
				// Oracle minimum.
				ids := make([]int, 0, len(oracle))
				for k := range oracle {
					ids = append(ids, k)
				}
				sort.Slice(ids, func(a, b int) bool { return oracle[ids[a]] < oracle[ids[b]] })
				if gotP != oracle[ids[0]] {
					t.Fatalf("Peek priority %v != oracle min %v", gotP, oracle[ids[0]])
				}
				if oracle[gotID] != gotP {
					t.Fatalf("Peek id/priority inconsistent")
				}
			}
			if h.Len() != len(oracle) {
				t.Fatalf("Len %d != oracle %d", h.Len(), len(oracle))
			}
		}
		// Drain and verify full sorted order.
		prev := -1.0
		for {
			_, p, ok := h.Pop()
			if !ok {
				break
			}
			if p < prev {
				t.Fatalf("pop order violated: %v after %v", p, prev)
			}
			prev = p
		}
	}
}
