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
	"act/internal/report"
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
// fastSweep first and, when that declines, through decodeJSON. The answer
// is appended directly, as the bytes json.NewEncoder gives sweepResponse
// in sweep_test.go; each key is left out when the request does not ask
// for it (a frontier of one or more candidates is never empty).
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

	buf := getBuf()
	defer putBuf(buf)
	out := append(buf.AvailableBuffer(), '{')
	names := expandMetrics(req.Rank)
	if len(names) > 0 {
		out = append(out, `"rankings":[`...)
		for k, name := range names {
			m := metrics.Metric(strings.ToUpper(strings.TrimSpace(name)))
			ranked, err := metrics.Rank(m, cands)
			if err != nil {
				return acterr.Invalid("rank", "%v", err)
			}
			if k > 0 {
				out = append(out, ',')
			}
			var ok bool
			if out, ok = appendRanking(out, m, ranked); !ok {
				return nonFinite(m, cands)
			}
		}
		out = append(out, ']')
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
		if len(names) > 0 {
			out = append(out, ',')
		}
		out = append(out, `"pareto":[`...)
		for i, c := range frontier {
			if i > 0 {
				out = append(out, ',')
			}
			out = report.AppendJSONString(out, c.Name)
		}
		out = append(out, ']')
	}
	buf.Write(append(out, "}\n"...))

	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
	return nil
}

// appendRanking appends one ranking object. ok is false when a value is
// NaN or ±Inf, which JSON cannot carry.
func appendRanking(out []byte, m metrics.Metric, ranked []metrics.Scored) (_ []byte, ok bool) {
	out = append(out, `{"metric":`...)
	out = report.AppendJSONString(out, string(m))
	out = append(out, `,"ranked":[`...)
	for i, sc := range ranked {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, `{"name":`...)
		out = report.AppendJSONString(out, sc.Candidate.Name)
		out = append(out, `,"value":`...)
		if out, ok = report.AppendJSONFloat(out, sc.Value); !ok {
			return out, false
		}
		out = append(out, '}')
	}
	return append(out, "]}"...), true
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
