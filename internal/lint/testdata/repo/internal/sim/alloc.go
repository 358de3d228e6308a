// Fixture: heap traffic on the steady-state data path — seeded allocfree
// violations, one allowed amortized refill, and the exemptions the pass
// must honor (construction functions, the slice-removal idiom).
package sim

type queue struct {
	items []int
	free  []int
	tmp   []int
}

// NewQueue is construction: its allocations are exempt by name.
func NewQueue(n int) *queue {
	return &queue{items: make([]int, 0, n)}
}

// Push grows queue state per call.
func (q *queue) Push(v int) {
	q.items = append(q.items, v) // violation: state growth on the data path
}

// Scratch sizes a fresh slice per call.
func (q *queue) Scratch(n int) []int {
	q.tmp = make([]int, n) // violation: make outside construction
	return q.tmp
}

// Refill restocks the free list a chunk at a time; the allocation
// amortizes, so it carries a reasoned allow directive.
func (q *queue) Refill() {
	//hxlint:allow allocfree — fixture: chunked pool refill, amortizes to zero once warm
	chunk := make([]int, 16)
	for i := range chunk {
		//hxlint:allow allocfree — fixture: free list grows to its high-water mark, then recycles
		q.free = append(q.free, chunk[i])
	}
}

// Remove uses the shrinking append idiom, which must not be flagged.
func (q *queue) Remove(i int) {
	q.items = append(q.items[:i], q.items[i+1:]...)
}

// pushTo grows a caller's slice through a pointer: the same growth.
func pushTo(s *[]int, v int) {
	*s = append(*s, v) // violation: state growth through a pointer
}
