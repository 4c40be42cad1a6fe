package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
)

func TestCacheHitAndEviction(t *testing.T) {
	c := NewCache[int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); v != 1 || !ok {
		t.Fatalf("Get(a) = (%d, %v), want (1, hit)", v, ok)
	}
	c.Put("bb", 2)
	c.Get("a")      // refresh a: now bb is the LRU entry
	c.Put("ccc", 3) // evicts bb, keeps the recently-used a
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.Get("bb"); ok {
		t.Error("bb should have been evicted")
	}
	c.Put("a", 9) // a resident key takes the fresher value
	if v, _ := c.Get("a"); v != 9 || c.Len() != 2 {
		t.Errorf("re-Put(a) = %d with len %d, want 9 with len 2", v, c.Len())
	}
}

func TestCacheDisabledResidency(t *testing.T) {
	c := NewCache[int](-1)
	for i := 0; i < 3; i++ {
		c.Put("k", 7)
		if _, ok := c.Get("k"); ok {
			t.Error("disabled cache reported a residency hit")
		}
	}
	if c.Len() != 0 {
		t.Errorf("len = %d, want 0", c.Len())
	}
}

// TestCacheErrorNotCached pins that a failed evaluation leaves nothing
// resident: the footprint path stores only successful documents, so a
// scenario that fails is evaluated afresh by the next request.
func TestCacheErrorNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bad := testSpec(-1) // negative die area
	if resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, bad)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %.200s", resp.StatusCode, body)
	}
	if s.cache.Len() != 0 {
		t.Fatal("a failed evaluation was cached")
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(5))); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid follow-up status = %d", resp.StatusCode)
	}
	if s.cache.Len() != 1 {
		t.Errorf("len = %d after one valid evaluation, want 1", s.cache.Len())
	}
}

// TestCacheStress hammers a small cache from many goroutines so the race
// detector can chew on the LRU bookkeeping.
func TestCacheStress(t *testing.T) {
	c := NewCache[int](4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g+i)%13)
				want := len(key) + (g+i)%13
				v, ok := c.Get(key)
				if !ok {
					c.Put(key, want)
					continue
				}
				if v != want {
					t.Errorf("key %s = %d, want %d", key, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 4 {
		t.Errorf("len = %d, exceeds capacity 4", c.Len())
	}
}
