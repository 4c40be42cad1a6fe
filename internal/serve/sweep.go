package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"

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

var (
	sweepKeys     = []string{"version", "candidates", "rank", "pareto"}
	candidateKeys = []string{"name", "embodied_g", "energy_j", "delay_s", "area_mm2"}
)

// fastSweep decodes a sweep body in one pass through the scenario
// package's fast decoder; each case mirrors a json tag above. ok is false
// when the body left the decoder's subset (see scenario/fastwire.go):
// decodeJSON's encoding/json decode is then the answer, errors included.
func fastSweep(body []byte) (req sweepRequest, ok bool) {
	d := scenario.NewFastDecoder(body)
	strs := func() []string {
		out := []string{}
		d.Array(func() { out = append(out, d.String()) })
		return out
	}
	d.Object(sweepKeys, func(key string) {
		switch key {
		case "version":
			req.Version = d.Int()
		case "candidates":
			req.Candidates = []sweepCandidate{}
			d.Array(func() {
				var c sweepCandidate
				d.Object(candidateKeys, func(key string) {
					switch key {
					case "name":
						c.Name = d.String()
					case "embodied_g":
						c.EmbodiedG = d.Float()
					case "energy_j":
						c.EnergyJ = d.Float()
					case "delay_s":
						c.DelayS = d.Float()
					case "area_mm2":
						c.AreaMM2 = d.Float()
					}
				})
				req.Candidates = append(req.Candidates, c)
			})
		case "rank":
			req.Rank = strs()
		case "pareto":
			req.Pareto = strs()
		}
	})
	return req, d.End()
}

// handleSweep ranks candidate design points under the requested Table 2
// metrics and/or reduces them to a Pareto frontier. The body goes through
// fastSweep first and, when that declines, through decodeJSON.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	body, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	req, ok := fastSweep(body)
	if !ok {
		req = sweepRequest{}
		if err := decodeJSON(body, "sweep request", &req); err != nil {
			return err
		}
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
			Area:     units.MM2(c.AreaMM2),
		}
		if cands[i].Name == "" {
			return acterr.Invalid(fmt.Sprintf("candidates[%d].name", i), "name is required")
		}
		if cands[i].Delay, err = metrics.DelayFromSeconds(c.DelayS); err != nil {
			return acterr.Invalid(fmt.Sprintf("candidates[%d].delay_s", i), "%v", err)
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
		finite := true
		for i, sc := range ranked {
			sr.Ranked[i] = sweepScore{Name: sc.Candidate.Name, Value: sc.Value}
			finite = finite && !math.IsInf(sc.Value, 0) && !math.IsNaN(sc.Value)
		}
		if !finite {
			return nonFinite(m, cands)
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

// nonFinite is the 400 for a ranking holding a NaN or ±Inf value, which
// JSON cannot carry: it names the first such candidate in input order.
func nonFinite(m metrics.Metric, cands []metrics.Candidate) error {
	for i, c := range cands {
		if v, _ := metrics.Eval(m, c); math.IsInf(v, 0) || math.IsNaN(v) {
			return acterr.Invalid(fmt.Sprintf("candidates[%d]", i),
				"%s value %v is not a finite number", m, v)
		}
	}
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
