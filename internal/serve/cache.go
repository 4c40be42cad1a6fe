// The footprint cache: a bounded LRU. Fleet assessments ("Chasing Carbon"
// style) batch thousands of device BoMs of which only a handful are
// distinct, so the common case is that a scenario's result is already
// resident. The columnar path probes residency with Get, dedupes the
// misses within the request, and stores each fresh result with Put.

package serve

import (
	"container/list"
	"sync"
)

// Cache is a bounded, mutex-guarded LRU keyed by string. The zero value is
// not usable; see NewCache. All methods are safe for concurrent use.
type Cache[V any] struct {
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewCache creates a cache holding at most capacity entries. A capacity
// below 1 disables residency: Put stores nothing and every Get misses.
func NewCache[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    map[string]*list.Element{},
	}
}

// Get returns the resident value for key, bumping its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores a computed value, evicting from the cold end when full.
// Storing a resident key replaces its value and bumps its recency: two
// concurrent requests can evaluate the same key.
func (c *Cache[V]) Put(key string, v V) {
	if c.capacity < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
