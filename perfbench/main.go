// Command actbench is the repository's loopback benchmark of actd. It
// starts actd in process, drives it over 127.0.0.1 HTTP from one
// closed-loop client connection, checks every answer outside the timed
// window, and prints one metric per line followed by a JSON result line.
//
//	actbench --workload design|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// splits each window into two halves of the same traffic — untraced, then
// through a front door that times actd's handler — and then replays each
// layer's public functions on the same inputs, reporting per-layer
// metrics, each operation's unattributed remainder and the tracing
// overhead. NOTES.md explains the workloads and what each metric should
// move.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// Set-ups per run; setup_s is their median.
const (
	designSetups = 21 // start actd and prime its cache: about 0.1 s each
	fleetSetups  = 5  // start actd and bulk-load the fleet: about 0.8 s each
)

// warmup is the untimed stretch of each mix before it is measured.
const warmup = 2 * time.Second

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: design or fleet")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 18, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if (*name != "design" && *name != "fleet") || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: actbench --workload design|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		design: *name == "design",
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
	}
	ms, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "actbench:", err)
	}
	res := result{
		Correct:   err == nil && b.failed == 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   map[string]map[string]any{},
	}
	if b.attempted == 0 {
		res.Failed = max(res.Failed, 1)
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "actbench: metric %s has no value\n", m.name)
			res.Correct = false
			continue
		}
		fmt.Printf("%-40s %16.6f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "actbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type bench struct {
	design    bool // the window sends the design mix and the probe the fleet mix, or the other way round
	seed      uint64
	window    time.Duration // the length of the window and of the probe, traced phases included
	traced    bool
	attempted int
	failed    int
	d         *designInputs // nil while no stage needs it
	f         *fleetInputs  // nil while no stage needs it
	admin     *http.Client  // set-up, checks and /metrics reads
}

// stage is one actd serving one mix.
type stage struct {
	design bool
	topo   *topology
	rounds int // rounds of the mix this actd has been sent
}

// measured is what one mix measured on its stage: untraced, and in a
// traced run through the timed front door as well.
type measured struct {
	untraced, traced *phase
}

func (b *bench) run() ([]metric, error) {
	refBefore := hostRef()
	logf("host reference %.0f ns", refBefore)
	b.admin = newClient()
	if err := b.inputs(b.design); err != nil {
		return nil, err
	}

	// Set-up: the window's actd, started and given its state several times
	// over; the last one serves the window.
	setups := fleetSetups
	if b.design {
		setups = designSetups
	}
	if b.traced {
		setups = 1
	}
	var own *stage
	setupTimes := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if own != nil {
			if err := own.topo.close(); err != nil {
				return nil, fmt.Errorf("stopping actd: %w", err)
			}
			b.admin.CloseIdleConnections()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if own, err = b.start(b.design); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	logf("set-up: %d runs, median %.3fs", setups, median(setupTimes))
	window, err := b.measure(own)
	if cerr := own.topo.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stopping actd: %w", cerr)
	}
	if err != nil {
		return nil, err
	}

	// The probe: the other mix, on an actd of its own, in a heap that holds
	// only the other mix's inputs, so every end-to-end metric is measured
	// on every workload without one mix's state pacing the other's
	// collections.
	b.dropInputs(b.design)
	if err := b.inputs(!b.design); err != nil {
		return nil, err
	}
	other, err := b.start(!b.design)
	if err != nil {
		return nil, err
	}
	probe, err := b.measure(other)
	if cerr := other.topo.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stopping the probe's actd: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	logf("answers checked")

	dm, fm := window, probe
	if !b.design {
		dm, fm = probe, window
	}
	e2e := b.endToEnd(window.untraced, dm.untraced, fm.untraced, median(setupTimes))
	if !b.traced {
		refAfter := hostRef()
		fmt.Printf("# host.ref_ns before %.1f after %.1f (not an end-to-end metric)\n", refBefore, refAfter)
		return e2e, nil
	}
	if err := b.inputs(b.design); err != nil {
		return nil, err
	}
	ms, err := b.layers(window.untraced, dm.traced, fm.traced)
	if err != nil {
		return nil, err
	}
	// Tracing overhead: traced minus untraced, per end-to-end metric.
	te2e := b.endToEnd(window.traced, dm.traced, fm.traced, 0)
	for i, m := range e2e {
		logf("%-20s untraced %12.4f traced %12.4f %s", m.name, m.value, te2e[i].value, m.unit)
		if m.name == "setup_s" {
			continue
		}
		ms = append(ms, metric{"overhead." + m.name, te2e[i].value - m.value, m.unit})
	}
	refAfter := hostRef()
	ms = append(ms, metric{"host.ref_ns", (refBefore + refAfter) / 2, "ns"})
	return ms, nil
}

// inputs generates one mix's request bodies and expected answers, unless
// they are held already.
func (b *bench) inputs(design bool) error {
	var err error
	switch {
	case design && b.d == nil:
		if b.d, err = genDesign(b.seed); err != nil {
			return fmt.Errorf("generating design inputs: %w", err)
		}
	case !design && b.f == nil:
		if b.f, err = genFleet(b.seed); err != nil {
			return fmt.Errorf("generating fleet inputs: %w", err)
		}
	}
	logf("%s inputs: %.1f MiB of request bodies", mixName(design), b.inputMiB(design))
	return nil
}

// dropInputs releases one mix's inputs and returns the memory to the OS.
func (b *bench) dropInputs(design bool) {
	if design {
		b.d = nil
	} else {
		b.f = nil
	}
	debug.FreeOSMemory()
}

// inputMiB is the size of the request bodies one mix holds.
func (b *bench) inputMiB(design bool) float64 {
	n := 0
	add := func(bs [][]byte) {
		for _, x := range bs {
			n += len(x)
		}
	}
	if design {
		add(b.d.singles)
		add(b.d.batches)
		add(b.d.sweeps)
		add(b.d.scripts)
		add(b.d.primeBatches)
	} else {
		add(b.f.bulk)
		add(b.f.updates)
	}
	return float64(n) / (1 << 20)
}

func mixName(design bool) string {
	if design {
		return "design"
	}
	return "fleet"
}

// start starts one actd and gives it a mix's state: a primed footprint
// cache for the design mix, the bulk-loaded fleet for the fleet mix.
func (b *bench) start(design bool) (*stage, error) {
	topo, err := startTopology(1)
	if err != nil {
		return nil, fmt.Errorf("starting actd: %w", err)
	}
	st := &stage{design: design, topo: topo}
	if _, err = get(b.admin, topo.front()+"/healthz"); err == nil {
		if design {
			if err = primeCache(b.admin, topo.front(), b.d); err != nil {
				err = fmt.Errorf("priming the footprint cache: %w", err)
			}
		} else if err = bulkLoad(b.admin, topo.front(), b.f); err != nil {
			err = fmt.Errorf("bulk load: %w", err)
		}
	}
	if err != nil {
		topo.close()
		return nil, err
	}
	return st, nil
}

func (b *bench) mix(design bool) mix {
	if design {
		return designMix{b.d}
	}
	return fleetMix{b.f}
}

// measure warms st up on its mix, then sends the mix for the window's
// length untraced or, in a traced run, for half of it untraced and half
// through the timed front door, so a traced run takes no longer than an
// untraced one; then it checks st's answers.
func (b *bench) measure(st *stage) (*measured, error) {
	debug.FreeOSMemory()
	c := &client{hc: newClient(), base: st.topo.front()}
	if _, err := b.phase(st, c, warmup); err != nil {
		return nil, err
	}
	dur := b.window
	if b.traced {
		dur /= 2
	}
	m := &measured{}
	var err error
	if m.untraced, err = b.phase(st, c, dur); err != nil {
		return nil, err
	}
	if b.traced {
		tc := &client{hc: newClient()}
		if tc.base, tc.timer, err = st.topo.traceFront(); err != nil {
			return nil, err
		}
		if m.traced, err = b.phase(st, tc, dur); err != nil {
			return nil, err
		}
	}
	if st.design {
		err = checkDesign(b.admin, st.topo.front(), b.d)
	} else {
		err = b.checkFleet(st)
	}
	return m, err
}

// phase sends st's mix through c for dur, counts its operations into the
// run's totals and, for the design mix, reads the cache counters around it.
func (b *bench) phase(st *stage, c *client, dur time.Duration) (*phase, error) {
	runtime.GC()
	var h0, l0 float64
	var err error
	if st.design {
		if h0, l0, err = cacheCounters(b.admin, st.topo.front()); err != nil {
			return nil, err
		}
	}
	p := c.run(b.mix(st.design), st.rounds, dur)
	st.rounds += p.rounds
	b.attempted += p.ops()
	b.failed += p.failures()
	logf("%s: %s", mixName(st.design), p)
	if st.design {
		h1, l1, err := cacheCounters(b.admin, st.topo.front())
		if err != nil {
			return nil, err
		}
		p.hits, p.lookups = h1-h0, l1-l0
	}
	return p, nil
}

// checkFleet builds the oracle registry only now, after the stage's last
// timed request, so it never shares the heap with actd during a window.
func (b *bench) checkFleet(st *stage) error {
	o, err := newFleetOracle(b.f)
	if err != nil {
		return err
	}
	if err := o.advance(b.f, updatesSent(st.rounds)); err != nil {
		return err
	}
	return checkFleet(b.admin, st.topo.front(), o)
}

// cacheCounters reads actd's footprint cache counters from /metrics.
func cacheCounters(hc *http.Client, base string) (hits, lookups float64, err error) {
	body, err := get(hc, base+"/metrics")
	if err != nil {
		return 0, 0, err
	}
	var misses float64
	for _, line := range strings.Split(string(body), "\n") {
		var v float64
		if n, _ := fmt.Sscanf(line, "actd_cache_hits_total %g", &v); n == 1 {
			hits = v
		}
		if n, _ := fmt.Sscanf(line, "actd_cache_misses_total %g", &v); n == 1 {
			misses = v
		}
	}
	return hits, hits + misses, nil
}

// endToEnd derives the end-to-end metrics: throughput, CPU per operation
// and RSS as medians over the window's slices, latencies over every
// operation of the phase that sent it. The heavy operations' latencies
// have two modes, with and without a collection under way, and their
// medians sit at the knee between them, where a few points' change in the
// share meeting a collection moves the median by a quarter; they report
// the mean, which moves in proportion to that share.
func (b *bench) endToEnd(w, d, f *phase, setupS float64) []metric {
	var rate, cpu, rss []float64
	for _, s := range w.slices {
		rate = append(rate, float64(s.ops)/s.wall.Seconds())
		cpu = append(cpu, float64(s.cpu.Microseconds())/float64(s.ops))
		rss = append(rss, s.rssMB)
	}
	ms := []metric{
		{"setup_s", setupS, "s"},
		{"ops_per_s", median(rate), "1/s"},
		{"cpu_us_per_op", median(cpu), "us"},
		{"rss_mb", median(rss), "MiB"},
		{"footprint_p50_ms", pct(d.lat[opFootprint], 0.5), "ms"},
		{"footprint_p90_ms", pct(d.lat[opFootprint], 0.9), "ms"},
		{"batch_mean_ms", meanMS(d.lat[opBatch]), "ms"},
		{"sweep_mean_ms", meanMS(d.lat[opSweep]), "ms"},
		{"script_mean_ms", meanMS(d.lat[opScript]), "ms"},
		{"ingest_mean_ms", meanMS(f.lat[opIngest]), "ms"},
		{"summary_p50_ms", pct(f.lat[opSummary], 0.5), "ms"},
		{"summary_p90_ms", pct(f.lat[opSummary], 0.9), "ms"},
		{"top_mean_ms", meanMS(f.lat[opTop]), "ms"},
	}
	for k := opKind(0); k < nOps; k++ {
		ph := d
		if k >= opIngest {
			ph = f
		}
		fmt.Printf("# ops %-10s attempted %7d failed %d samples %d\n", opNames[k], ph.attempted[k], ph.failed[k], len(ph.lat[k]))
	}
	return ms
}

// pct is the nearest-rank percentile of ds in milliseconds.
func pct(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / 1e6
}

// meanMS is the mean of ds in milliseconds.
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var started = time.Now()

// logf reports progress on standard error with the time since start.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "actbench %6.2fs: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// hostRef times a fixed pure-CPU loop — SHA-256 over a 64 KiB block —
// and returns the median nanoseconds per block. Sampled before and after
// a run, it separates machine drift from a regression.
func hostRef() float64 {
	block := make([]byte, 64<<10)
	for i := range block {
		block[i] = byte(i * 7)
	}
	var ns []float64
	for s := 0; s < 9; s++ {
		start := time.Now()
		for i := 0; i < 32; i++ {
			sum := sha256.Sum256(block)
			block[0] = sum[0]
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/32)
	}
	return median(ns)
}
