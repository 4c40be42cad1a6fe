package main

// The closed-loop load: one client, one keep-alive connection, the next
// request sent only after the previous response has been read in full.
// Traffic is organised in rounds, each a fixed sequence of operations;
// throughput and CPU are measured over slices of whole rounds.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type opKind int

const (
	opFootprint opKind = iota
	opBatch
	opSweep
	opScript
	opIngest
	opSummary
	opTop
	nOps
)

var opNames = [nOps]string{"footprint", "batch", "sweep", "script", "ingest", "summary", "top"}

type op struct {
	kind   opKind
	method string
	path   string
	ctype  string
	body   []byte
}

// mix yields the operations of round r.
type mix interface {
	appendRound(dst []op, r int) []op
}

type designMix struct{ d *designInputs }

// A design round: 64 single footprints from the skewed draw sequence with
// one batch, one sweep and one script program spread among them.
func (m designMix) appendRound(dst []op, r int) []op {
	const quarter = singlesPerRound / 4
	for q := 0; q < 4; q++ {
		for i := 0; i < quarter; i++ {
			idx := m.d.draws[(r*singlesPerRound+q*quarter+i)%len(m.d.draws)]
			dst = append(dst, op{opFootprint, http.MethodPost, "/v1/footprint", "application/json", m.d.singles[idx]})
		}
		switch q {
		case 0:
			dst = append(dst, op{opBatch, http.MethodPost, "/v1/footprint", "application/json", m.d.batches[r%batchCount]})
		case 1:
			dst = append(dst, op{opSweep, http.MethodPost, "/v1/sweep", "application/json", m.d.sweeps[r%sweepCount]})
		case 2:
			dst = append(dst, op{opScript, http.MethodPost, "/v1/script", "application/json", m.d.scripts[r%scriptCount]})
		}
	}
	return dst
}

type fleetMix struct{ f *fleetInputs }

const (
	summaryPath = "/v1/fleet/summary?by=region"
	topPath     = "/v1/fleet/summary?top=10"
)

// A fleet round: eight iterations of one 100-device replace ingest and
// eight grouped summaries; the first iteration also asks for the top-K.
func (m fleetMix) appendRound(dst []op, r int) []op {
	for it := 0; it < itersPerRound; it++ {
		u := m.f.updates[(r*itersPerRound+it)%len(m.f.updates)]
		dst = append(dst, op{opIngest, http.MethodPost, "/v1/fleet/devices", "application/x-ndjson", u})
		for s := 0; s < summariesPerI; s++ {
			dst = append(dst, op{opSummary, http.MethodGet, summaryPath, "", nil})
		}
		if it == 0 {
			dst = append(dst, op{opTop, http.MethodGet, topPath, "", nil})
		}
	}
	return dst
}

// updatesSent is how many update bodies rounds [0, rounds) sent, in order.
func updatesSent(rounds int) int { return rounds * itersPerRound }

type client struct {
	hc    *http.Client
	base  string
	timer *handlerTimer // non-nil on the traced front door
	buf   bytes.Buffer
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one operation and reads the whole answer. A transport error or
// any status other than 200 fails the operation.
func (c *client) do(o *op) (lat, handler time.Duration, ok bool) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, c.base+o.path, body)
	if err != nil {
		return 0, 0, false
	}
	if o.ctype != "" {
		req.Header.Set("Content-Type", o.ctype)
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return time.Since(start), 0, false
	}
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	if c.timer != nil {
		handler = time.Duration(c.timer.last.Load())
	}
	return lat, handler, err == nil && resp.StatusCode == http.StatusOK
}

// phase is what one stretch of rounds measured.
type phase struct {
	attempted, failed [nOps]int
	lat               [nOps][]time.Duration
	handler           [nOps][]time.Duration // traced front door only
	slices            []slice
	rounds            int
	elapsed           time.Duration
	totalAlloc        uint64
	numGC             uint32
	hits, lookups     float64 // footprint cache counters, design mix only
}

// slice is a stretch of whole rounds lasting at least sliceMin.
type slice struct {
	ops   int
	wall  time.Duration
	cpu   time.Duration
	rssMB float64
}

// sliceMin is long enough for a slice to span several GC cycles, so the
// median over slices weighs collection cost in, while one slice disturbed
// by the machine does not move it.
const sliceMin = 2 * time.Second

func (p *phase) ops() int {
	n := 0
	for k := range p.attempted {
		n += p.attempted[k]
	}
	return n
}

func (p *phase) failures() int {
	n := 0
	for k := range p.failed {
		n += p.failed[k]
	}
	return n
}

// run sends rounds of m from round from on, until the first round
// boundary after dur.
func (c *client) run(m mix, from int, dur time.Duration) *phase {
	p := &phase{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC
	var ops []op
	start := time.Now()
	sliceStart, sliceCPU, sliceOps := start, cpuTime(), 0
	for r := from; ; r++ {
		ops = m.appendRound(ops[:0], r)
		for i := range ops {
			o := &ops[i]
			lat, h, ok := c.do(o)
			p.attempted[o.kind]++
			if !ok {
				p.failed[o.kind]++
				continue
			}
			p.lat[o.kind] = append(p.lat[o.kind], lat)
			if c.timer != nil {
				p.handler[o.kind] = append(p.handler[o.kind], h)
			}
		}
		p.rounds++
		sliceOps += len(ops)
		now := time.Now()
		if wall := now.Sub(sliceStart); wall >= sliceMin {
			cpu := cpuTime()
			p.slices = append(p.slices, slice{ops: sliceOps, wall: wall, cpu: cpu - sliceCPU, rssMB: rssMB()})
			sliceStart, sliceCPU, sliceOps = now, cpu, 0
		}
		if now.Sub(start) >= dur {
			break
		}
	}
	// A trailing part-slice counts when it is at least half a slice, or
	// when the phase would otherwise have none.
	if wall := time.Since(sliceStart); sliceOps > 0 && (wall >= sliceMin/2 || len(p.slices) == 0) {
		p.slices = append(p.slices, slice{ops: sliceOps, wall: wall, cpu: cpuTime() - sliceCPU, rssMB: rssMB()})
	}
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	p.totalAlloc, p.numGC = ms.TotalAlloc-alloc0, ms.NumGC-gc0
	return p
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the process's resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func (p *phase) String() string {
	var b strings.Builder
	for k := opKind(0); k < nOps; k++ {
		if p.attempted[k] > 0 {
			fmt.Fprintf(&b, " %s=%d/%d", opNames[k], p.attempted[k]-p.failed[k], p.attempted[k])
		}
	}
	return fmt.Sprintf("%d rounds in %.2fs, ok/attempted:%s", p.rounds, p.elapsed.Seconds(), b.String())
}
