// Exporter self-metrics. They register into the same hand-rolled registry
// actd's /metrics renders (internal/prom is shared for exactly this), so
// one scrape shows both the service's request metrics and the push
// pipeline's health: ticks emitted, payload bytes before and after
// compression, drops, per-endpoint send outcomes, and flush latency from
// tick deadline to delivered.

package export

import (
	"act/internal/prom"
)

// Metrics is the exporter's self-instrumentation. A nil *Metrics is valid
// (every method no-ops), so the pipeline can run unregistered in tests.
type Metrics struct {
	ticks      *prom.CounterVec // act_export_ticks_total{generator="fleet"}
	lines      *prom.Counter    // act_export_lines_total
	rawBytes   *prom.Counter    // act_export_bytes_total
	gzBytes    *prom.Counter    // act_export_compressed_bytes_total
	drops      *prom.CounterVec // act_export_drops_total{reason}
	sends      *prom.CounterVec // act_export_sends_total{endpoint,outcome}
	emitErrors *prom.Counter    // act_export_emit_errors_total
	flushSecs  *prom.Histogram  // act_export_flush_seconds
}

// The drop reasons counted under act_export_drops_total.
const (
	dropQueueFull  = "queue_full"
	dropCompress   = "compress"
	dropSendFailed = "send_failed"
	dropShutdown   = "shutdown"
)

// NewMetrics registers the exporter's instruments on reg. They are all
// counters and one histogram; no gauge of live pipeline state (queue
// depth, healthy endpoints) is registered.
func NewMetrics(reg *prom.Registry) *Metrics {
	return &Metrics{
		ticks: reg.NewCounterVec("act_export_ticks_total",
			"Telemetry emission ticks, by generator.", "generator"),
		lines: reg.NewCounter("act_export_lines_total",
			"Exposition lines emitted across all ticks."),
		rawBytes: reg.NewCounter("act_export_bytes_total",
			"Payload bytes emitted, before compression."),
		gzBytes: reg.NewCounter("act_export_compressed_bytes_total",
			"Payload bytes handed to delivery, after gzip."),
		drops: reg.NewCounterVec("act_export_drops_total",
			"Payloads dropped instead of delivered, by reason.", "reason"),
		sends: reg.NewCounterVec("act_export_sends_total",
			"Delivery attempts, by endpoint and outcome.", "endpoint", "outcome"),
		emitErrors: reg.NewCounter("act_export_emit_errors_total",
			"Generator ticks that failed to produce a payload."),
		flushSecs: reg.NewHistogram("act_export_flush_seconds",
			"Latency from tick deadline to delivered payload, in seconds.",
			prom.DefaultLatencyBuckets),
	}
}

func (m *Metrics) tick() {
	if m != nil {
		m.ticks.With("fleet").Add(1)
	}
}

func (m *Metrics) emitted(lines int, rawBytes int) {
	if m != nil {
		m.lines.Add(uint64(lines))
		m.rawBytes.Add(uint64(rawBytes))
	}
}

func (m *Metrics) compressed(n int) {
	if m != nil {
		m.gzBytes.Add(uint64(n))
	}
}

func (m *Metrics) drop(reason string) {
	if m != nil {
		m.drops.With(reason).Add(1)
	}
}

func (m *Metrics) send(endpoint string, ok bool) {
	if m != nil {
		outcome := "ok"
		if !ok {
			outcome = "error"
		}
		m.sends.With(endpoint, outcome).Add(1)
	}
}

func (m *Metrics) emitError() {
	if m != nil {
		m.emitErrors.Inc()
	}
}

func (m *Metrics) flush(seconds float64) {
	if m != nil {
		m.flushSecs.Observe(seconds)
	}
}
