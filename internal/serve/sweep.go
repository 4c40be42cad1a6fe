package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"act/internal/acterr"
	"act/internal/dse"
	"act/internal/metrics"
	"act/internal/scenario"
	"act/internal/units"
)

// sweepRequest asks for metric rankings and/or a Pareto frontier over a set
// of candidate design points — the API form of cmd/actsweep.
type sweepRequest struct {
	Version    int              `json:"version,omitempty"`
	Candidates []sweepCandidate `json:"candidates"`
	// Rank lists Table 2 metrics to rank by (e.g. "CDP", "CEP"); "all"
	// expands to every metric.
	Rank []string `json:"rank,omitempty"`
	// Pareto lists candidate axes ("embodied", "energy", "delay", "area")
	// to build a Pareto frontier over; needs at least two.
	Pareto []string `json:"pareto,omitempty"`
}

type sweepCandidate struct {
	Name      string  `json:"name"`
	EmbodiedG float64 `json:"embodied_g"`
	EnergyJ   float64 `json:"energy_j"`
	DelayS    float64 `json:"delay_s"`
	AreaMM2   float64 `json:"area_mm2,omitempty"`
}

type sweepResponse struct {
	Rankings []sweepRanking `json:"rankings,omitempty"`
	Pareto   []string       `json:"pareto,omitempty"`
}

type sweepRanking struct {
	Metric string       `json:"metric"`
	Ranked []sweepScore `json:"ranked"`
}

type sweepScore struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// builtinObjectives maps the Pareto axis names to the dse objectives.
var builtinObjectives = map[string]dse.Objective{
	"embodied": dse.Embodied,
	"energy":   dse.Energy,
	"delay":    dse.Delay,
	"area":     dse.Area,
}

// handleSweep ranks candidate design points under the requested Table 2
// metrics and/or reduces them to a Pareto frontier.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	var req sweepRequest
	if err := s.readJSON(w, r, "sweep request", &req); err != nil {
		return err
	}
	if req.Version != 0 && req.Version != scenario.Version {
		return &acterr.UnsupportedVersionError{Version: req.Version}
	}
	if len(req.Candidates) == 0 {
		return acterr.Invalid("candidates", "at least one candidate is required")
	}
	if len(req.Rank) == 0 && len(req.Pareto) == 0 {
		return acterr.Invalid("rank", `request asks for nothing: set "rank" and/or "pareto"`)
	}

	cands := make([]metrics.Candidate, len(req.Candidates))
	for i, c := range req.Candidates {
		cands[i] = metrics.Candidate{
			Name:     c.Name,
			Embodied: units.Grams(c.EmbodiedG),
			Energy:   units.Joules(c.EnergyJ),
			Delay:    time.Duration(c.DelayS * float64(time.Second)),
			Area:     units.MM2(c.AreaMM2),
		}
		if cands[i].Name == "" {
			return acterr.Invalid(fmt.Sprintf("candidates[%d].name", i), "name is required")
		}
		if err := cands[i].Validate(); err != nil {
			return acterr.Prefix(fmt.Sprintf("candidates[%d]", i), err)
		}
	}

	var resp sweepResponse

	for _, name := range expandMetrics(req.Rank) {
		m := metrics.Metric(strings.ToUpper(strings.TrimSpace(name)))
		ranked, err := metrics.Rank(m, cands)
		if err != nil {
			return acterr.Invalid("rank", "%v", err)
		}
		sr := sweepRanking{Metric: string(m), Ranked: make([]sweepScore, len(ranked))}
		for i, sc := range ranked {
			sr.Ranked[i] = sweepScore{Name: sc.Candidate.Name, Value: sc.Value}
		}
		resp.Rankings = append(resp.Rankings, sr)
	}

	if len(req.Pareto) > 0 {
		if len(req.Pareto) < 2 {
			return acterr.Invalid("pareto", "a Pareto frontier needs at least two objectives, got %d", len(req.Pareto))
		}
		objectives := make([]dse.Objective, len(req.Pareto))
		for i, axis := range req.Pareto {
			o, ok := builtinObjectives[strings.ToLower(strings.TrimSpace(axis))]
			if !ok {
				return acterr.Invalid(fmt.Sprintf("pareto[%d]", i),
					"unknown objective %q (want embodied, energy, delay or area)", axis)
			}
			objectives[i] = o
		}
		frontier, err := dse.ParetoFrontierCtx(r.Context(), cands, objectives)
		if err != nil {
			// A lapsed request deadline must surface as 504, not as a
			// candidate-validation 400.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			return acterr.Invalid("pareto", "%v", err)
		}
		resp.Pareto = make([]string, len(frontier))
		for i, c := range frontier {
			resp.Pareto[i] = c.Name
		}
	}

	writeJSON(w, http.StatusOK, resp)
	return nil
}

// expandMetrics resolves the "all" shorthand.
func expandMetrics(names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if strings.EqualFold(strings.TrimSpace(n), "all") {
			for _, m := range metrics.All() {
				out = append(out, string(m))
			}
			continue
		}
		out = append(out, n)
	}
	return out
}
