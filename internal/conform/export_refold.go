// The export refold: the telemetry exporter walks the same registry the
// summary API folds, so every fleet-wide gauge it emits must carry a value
// bit-identical to the summary document — and re-encoding the exported
// float must reproduce the exact numeric token a client reads in the
// /v1/fleet/summary body. A tolerance here would let the dashboard and the
// API drift apart by an ulp per release until they disagree visibly.

package conform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"act/internal/export"
	"act/internal/fleet"
	"act/internal/report"
)

// exportRefold renders one telemetry snapshot of reg and checks it against
// the already-folded summary document doc.
func (e *Engine) exportRefold(fail func(string, ...any), reg *fleet.Registry, doc report.FleetSummaryJSON) {
	raw, err := export.Render(reg, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		fail("export refold: render: %v", err)
		return
	}

	// Parse the fleet-wide samples (the unlabeled series) out of the line
	// protocol: `name value timestamp_ms`.
	series := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			fail("export refold: unparseable sample %q: %v", line, err)
			return
		}
		series[fields[0]] = v
	}

	checks := []struct {
		name string
		want float64
	}{
		{"act_fleet_devices", float64(doc.Devices)},
		{"act_fleet_distinct_boms", float64(doc.DistinctBoMs)},
		{"act_fleet_embodied_total_g", doc.EmbodiedTotalG},
		{"act_fleet_embodied_share_g", doc.EmbodiedShareG},
		{"act_fleet_operational_g", doc.OperationalG},
		{"act_fleet_total_g", doc.TotalG},
	}
	for _, c := range checks {
		got, ok := series[c.name]
		if !ok {
			fail("export refold: series %s missing from the snapshot", c.name)
			continue
		}
		if got != c.want {
			fail("export refold: %s exported %v, summary folds %v (must be bit-identical)",
				c.name, got, c.want)
		}
	}

	// The exported embodied total, re-encoded as JSON, must be the exact
	// token report.Encode wrote into the summary body.
	var sumBytes bytes.Buffer
	if err := report.Encode(&sumBytes, doc); err != nil {
		fail("export refold: encoding summary: %v", err)
		return
	}
	tok, err := json.Marshal(series["act_fleet_embodied_total_g"])
	if err != nil {
		fail("export refold: re-encoding exported total: %v", err)
		return
	}
	want := fmt.Sprintf(`"embodied_total_g": %s`, tok)
	if !bytes.Contains(sumBytes.Bytes(), []byte(want)) {
		fail("export refold: summary body does not contain %s:\n%.400s", want, sumBytes.String())
	}
}
