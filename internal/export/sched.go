// The emission deadline: one next-tick time for the exporter's single
// scheduling goroutine. Ticks are drift-free — the deadline advances by
// whole intervals from its own previous value, not from whenever the
// goroutine got around to it — so a 10s series stays on the :00/:10/:20
// grid even when one tick runs long. A slow tick never bunches catch-up
// emissions: the advance loop skips whole missed intervals rather than
// replaying them.

package export

import (
	"sync"
	"time"
)

// deadline is the mutable next-tick time. due and setInterval are called
// from different goroutines (the scheduler loop vs. the config API), so it
// is mutex-guarded.
type deadline struct {
	mu       sync.Mutex
	interval time.Duration
	next     time.Time
	wake     chan struct{} // signaled when the deadline moved
}

// newDeadline sets the first tick one interval from now.
func newDeadline(interval time.Duration, now time.Time) *deadline {
	return &deadline{interval: interval, next: now.Add(interval), wake: make(chan struct{}, 1)}
}

// due reports whether the deadline has passed at now. When it has, at is
// the deadline it fired at — the timestamp the tick's samples carry, so a
// series sits on the interval grid regardless of scheduling jitter — and
// the deadline advances by whole intervals past now (the drift-free step).
// wait is how long until the next deadline; it is always positive.
func (d *deadline) due(now time.Time) (at time.Time, fired bool, wait time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.next.After(now) {
		at, fired = d.next, true
		for !d.next.After(now) {
			d.next = d.next.Add(d.interval)
		}
	}
	return at, fired, d.next.Sub(now)
}

// period reports the current interval.
func (d *deadline) period() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.interval
}

// setInterval retunes the interval, re-anchoring the next tick one new
// interval from now, and nudges the scheduler loop to re-read it.
func (d *deadline) setInterval(interval time.Duration, now time.Time) {
	d.mu.Lock()
	d.interval = interval
	d.next = now.Add(interval)
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}
