package trace

import "sync"

// Ring is a fixed-capacity, concurrency-safe ring buffer: recording never
// blocks and never grows, the engine's requirement for always-on tracing.
// When full, the oldest element is overwritten (evicted).
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	cap   int
	next  int    // slot the next Record writes
	total uint64 // elements ever recorded
}

// NewRing creates a ring holding up to capacity elements (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{cap: capacity}
}

// Record appends v. When the ring is full the oldest element makes room:
// it is returned, with evicted set.
func (r *Ring[T]) Record(v T) (old T, evicted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
		if cap(r.buf) > r.cap {
			// append's last growth step overshot: settle on the configured
			// capacity, after which the buffer never reallocates again.
			r.buf = append(make([]T, 0, r.cap), r.buf...)
		}
	} else {
		old, evicted = r.buf[r.next], true
		r.buf[r.next] = v
	}
	r.next = (r.next + 1) % r.cap
	r.total++
	return old, evicted
}

// Update calls fn on the newest buffered element in place, under the ring's
// lock, and returns what fn returned; it returns false on an empty ring.
func (r *Ring[T]) Update(fn func(newest *T) bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 {
		return false
	}
	return fn(&r.buf[(r.next+r.cap-1)%r.cap])
}

// Snapshot copies the buffered elements, oldest first.
func (r *Ring[T]) Snapshot() []T {
	return r.Filter(func(T) bool { return true })
}

// Filter copies the buffered elements that satisfy keep, oldest first.
func (r *Ring[T]) Filter(keep func(T) bool) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	start := 0
	if len(r.buf) == r.cap {
		start = r.next // buffer full: oldest element sits at next
	}
	for i := 0; i < len(r.buf); i++ {
		v := r.buf[(start+i)%len(r.buf)]
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

// Len reports the number of buffered elements.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total reports the number of elements ever recorded.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Evicted reports how many recorded elements have been overwritten.
func (r *Ring[T]) Evicted() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}
