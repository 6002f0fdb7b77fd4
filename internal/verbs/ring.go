package verbs

// ring is a FIFO queue over a power-of-two circular buffer: the backing
// store of completion queues, which push and pop once per datagram, of
// receive queues, whose elements are runs of WQEs, and of RC receive
// windows, whose elements are per-message slots. It grows by doubling when
// full and never shrinks, so a queue cycling at a steady depth touches the
// same memory over and over and allocates nothing. The first growth makes
// two slots: most receive queues (the control plane's) only ever hold one
// run. The zero value is an empty ring.
type ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int // elements queued
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		// Unroll into a buffer twice the size, oldest element at index 0.
		buf := make([]T, max(2, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// front and back return the oldest and the newest element in place; the
// ring must not be empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }
func (r *ring[T]) back() *T  { return r.at(r.n - 1) }

// at returns the element i places behind the oldest, in place; i must be
// below len().
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// pop removes and returns the oldest element; the ring must not be empty.
// The vacated slot is zeroed so the ring does not retain what it handed out.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
