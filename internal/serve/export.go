// The /v1/export/config API: runtime inspection and retuning of the push
// telemetry exporter. The document is versioned for optimistic
// concurrency — a PUT must carry the version it read, and a lost race
// answers 409/conflict — so two operators retuning the interval cannot
// silently clobber each other.

package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"act/internal/acterr"
	"act/internal/prom"
)

// exporterControl is the slice of the exporter the config API drives. An
// interface so serve stays decoupled from internal/export; cmd/actd wires
// the real *export.Exporter through AttachExporter.
type exporterControl interface {
	Interval() time.Duration
	SetInterval(time.Duration) error
	RateBytesPerSec() int
	SetRateBytesPerSec(int) error
	URLs() []string
}

// AttachExporter wires the running exporter into the config API. Call
// before serving; a server without one answers 404 on /v1/export/config.
func (s *Server) AttachExporter(e exporterControl) {
	s.exporter = e
	s.exportCfgVersion.Store(1)
}

// MetricsRegistry exposes the server's instrument registry so sidecar
// subsystems (the telemetry exporter) register self-metrics into the same
// /metrics exposition.
func (s *Server) MetricsRegistry() *prom.Registry { return s.reg }

// exportConfigJSON is the versioned config document GET returns and PUT
// accepts (URLs are read-only: delivery targets are a deployment decision,
// not a runtime retune).
type exportConfigJSON struct {
	Version         int64    `json:"version"`
	IntervalMS      int64    `json:"interval_ms"`
	RateBytesPerSec int      `json:"rate_bytes_per_sec"`
	URLs            []string `json:"urls,omitempty"`
}

// handleExportConfigGet answers the current exporter configuration.
func (s *Server) handleExportConfigGet(w http.ResponseWriter, r *http.Request) error {
	if s.exporter == nil {
		return errNoExporter
	}
	s.writeExportConfig(w)
	return nil
}

// handleExportConfigPut retunes the exporter. The request must echo the
// version it read; on success the version bumps and the new document is
// returned.
func (s *Server) handleExportConfigPut(w http.ResponseWriter, r *http.Request) error {
	if s.exporter == nil {
		return errNoExporter
	}
	var req exportConfigJSON
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// A document past its own 64 KiB cap keeps its *http.MaxBytesError
		// and answers 413, as every other body route does.
		return badRequest(err)
	}
	if req.IntervalMS <= 0 {
		return acterr.Invalid("interval_ms", "non-positive interval %d", req.IntervalMS)
	}
	if req.RateBytesPerSec < 0 {
		return acterr.Invalid("rate_bytes_per_sec", "negative rate %d", req.RateBytesPerSec)
	}
	if len(req.URLs) > 0 {
		return acterr.Invalid("urls", "endpoint URLs are read-only")
	}
	// Optimistic concurrency: apply-and-bump only if the caller's version
	// is still current.
	if !s.exportCfgVersion.CompareAndSwap(req.Version, req.Version+1) {
		return newAPIError(http.StatusConflict, codeConflict, "version",
			"export config changed since it was read; GET it again")
	}
	if err := s.exporter.SetInterval(time.Duration(req.IntervalMS) * time.Millisecond); err != nil {
		return err
	}
	if err := s.exporter.SetRateBytesPerSec(req.RateBytesPerSec); err != nil {
		return err
	}
	s.writeExportConfig(w)
	return nil
}

// writeExportConfig answers the current versioned config document.
func (s *Server) writeExportConfig(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, exportConfigJSON{
		Version:         s.exportCfgVersion.Load(),
		IntervalMS:      s.exporter.Interval().Milliseconds(),
		RateBytesPerSec: s.exporter.RateBytesPerSec(),
		URLs:            s.exporter.URLs(),
	})
}
