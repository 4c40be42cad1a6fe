// The bounded hand-off between emission and delivery. An emission tick
// pushes its payload here and returns immediately: when the queue is full
// the oldest payload is dropped (and counted) to make room. Emission — a
// walk over the live fleet registry's shard locks — is never blocked by a
// slow or dead telemetry backend; staleness is shed instead, oldest first,
// because the newest sample is the one worth delivering.

package export

import (
	"bytes"
	"sync"
	"time"
)

// payload is one emitted tick: the exposition buffer (owned by the payload
// once enqueued; returned to the buffer pool after delivery or drop) and
// the tick timestamp for latency accounting.
type payload struct {
	at  time.Time
	buf *bytes.Buffer
}

// release returns the payload's buffer to the pool.
func (p *payload) release() { putBuf(p.buf) }

// queue is a bounded FIFO with drop-oldest overflow. push never blocks;
// pop blocks until an item or close.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*payload // ring buffer
	head   int
	n      int
	closed bool

	onDrop func(*payload) // counted drop, called outside the lock
}

func newQueue(depth int, onDrop func(*payload)) *queue {
	q := &queue{items: make([]*payload, depth), onDrop: onDrop}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues p, evicting the oldest payload first when full. Returns
// false when the queue is closed (the payload is not taken).
func (q *queue) push(p *payload) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	var dropped *payload
	if q.n == len(q.items) {
		dropped = q.items[q.head]
		q.items[q.head] = nil
		q.head = (q.head + 1) % len(q.items)
		q.n--
	}
	q.items[(q.head+q.n)%len(q.items)] = p
	q.n++
	q.mu.Unlock()
	q.cond.Signal()
	if dropped != nil && q.onDrop != nil {
		q.onDrop(dropped)
	}
	return true
}

// pop dequeues the oldest payload, blocking while the queue is open and
// empty. ok is false once the queue is closed and drained.
func (q *queue) pop() (p *payload, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		return nil, false
	}
	p = q.items[q.head]
	q.items[q.head] = nil
	q.head = (q.head + 1) % len(q.items)
	q.n--
	return p, true
}

// close stops accepting pushes and wakes all poppers; queued payloads are
// still drained by pop — the flush half of flush-and-drain.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
