package prom

import (
	"math"
	"strings"
	"testing"
)

func TestCounterRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("widgets_total", "Widgets made.")
	c.Inc()
	c.Add(4)
	want := "# HELP widgets_total Widgets made.\n# TYPE widgets_total counter\nwidgets_total 5\n"
	if got := r.Render(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestCounterVecRenderSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("reqs_total", "Requests.", "handler", "code")
	v.With("sweep", "200").Add(2)
	v.With("footprint", "200").Add(7)
	v.With(`we"ird`, "500").Add(1)
	got := r.Render()
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	want := []string{
		"# HELP reqs_total Requests.",
		"# TYPE reqs_total counter",
		`reqs_total{handler="footprint",code="200"} 7`,
		`reqs_total{handler="sweep",code="200"} 2`,
		`reqs_total{handler="we\"ird",code="500"} 1`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines:\n%s", len(lines), got)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
	if v.Value("footprint", "200") != 7 {
		t.Errorf("Value = %d, want 7", v.Value("footprint", "200"))
	}
}

func TestCounterVecWrongArity(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("x_total", "X.", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestGaugeRender(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("inflight", "In flight.")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(3)
	if g.Value() != 4 {
		t.Fatalf("value = %d, want 4", g.Value())
	}
	g.Set(-2)
	want := "# HELP inflight In flight.\n# TYPE inflight gauge\ninflight -2\n"
	if got := r.Render(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramRenderCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99) // above every bound: only +Inf
	got := r.Render()
	for _, line := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		`lat_seconds_sum 99.6`,
		`lat_seconds_count 4`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("render missing %q:\n%s", line, got)
		}
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
}

func TestRegistryRendersInRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b_total", "B.")
	r.NewCounter("a_total", "A.")
	got := r.Render()
	if strings.Index(got, "b_total") > strings.Index(got, "a_total") {
		t.Error("instruments rendered out of registration order")
	}
}

func TestGaugeVecRenderSorted(t *testing.T) {
	r := NewRegistry()
	v := r.NewGaugeVec("actd_breaker_state", "Breaker position.", "handler")
	v.With("sweep").Store(2)
	v.With("footprint").Store(1)
	want := `# HELP actd_breaker_state Breaker position.
# TYPE actd_breaker_state gauge
actd_breaker_state{handler="footprint"} 1
actd_breaker_state{handler="sweep"} 2
`
	if got := r.Render(); got != want {
		t.Errorf("render mismatch:\n got %q\nwant %q", got, want)
	}
	if v.Value("sweep") != 2 {
		t.Errorf("Value(sweep) = %d, want 2", v.Value("sweep"))
	}
}

func TestGaugeVecWrongArity(t *testing.T) {
	r := NewRegistry()
	v := r.NewGaugeVec("g", "h", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestGaugeFuncRendersLiveValue(t *testing.T) {
	r := NewRegistry()
	depth := int64(0)
	g := r.NewGaugeFunc("actd_queue_depth", "Waiters.", func() int64 { return depth })
	depth = 7
	want := "# HELP actd_queue_depth Waiters.\n# TYPE actd_queue_depth gauge\nactd_queue_depth 7\n"
	if got := r.Render(); got != want {
		t.Errorf("render mismatch:\n got %q\nwant %q", got, want)
	}
	depth = 9
	if g.Value() != 9 {
		t.Errorf("Value() = %d, want the callback's current 9", g.Value())
	}
}

// TestFormatFloat pins the exposition spellings of the special values,
// which come straight from strconv.
func TestFormatFloat(t *testing.T) {
	for v, want := range map[float64]string{
		math.Inf(1): "+Inf", math.Inf(-1): "-Inf", 0.25: "0.25", 1e21: "1e+21", -3: "-3",
	} {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := FormatFloat(math.NaN()); got != "NaN" {
		t.Errorf("FormatFloat(NaN) = %q, want NaN", got)
	}
}
