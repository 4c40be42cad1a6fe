// Fleet wire format. These are the JSON shapes of a fleet-wide accounting
// shared by `act fleet` and the actd /v1/fleet API: the aggregate summary,
// optional group-by rows and optional top-K emitters, all SI-suffixed
// numbers with a fixed field order. Both producers marshal through Encode,
// so the CLI and the service emit byte-identical documents for the same
// fleet and query.

package report

// FleetGroupJSON is one group-by row (a region or a process node).
type FleetGroupJSON struct {
	Key            string  `json:"key"`
	Devices        int     `json:"devices"`
	EmbodiedShareG float64 `json:"embodied_share_g"`
	OperationalG   float64 `json:"operational_g"`
	TotalG         float64 `json:"total_g"`
}

// FleetDeviceJSON is one per-device line of the top-K emitter list.
type FleetDeviceJSON struct {
	ID             string  `json:"id"`
	Region         string  `json:"region"`
	Node           string  `json:"node,omitempty"`
	EmbodiedG      float64 `json:"embodied_g"`
	EmbodiedShareG float64 `json:"embodied_share_g"`
	OperationalG   float64 `json:"operational_g"`
	TotalG         float64 `json:"total_g"`
}

// FleetSummaryJSON is the complete fleet accounting document: aggregate
// totals (embodied amortized per Eq. 1's T/LT, operational from regional
// grid intensity), plus the optional group-by and top-K sections when the
// query asked for them.
type FleetSummaryJSON struct {
	Devices        int     `json:"devices"`
	DistinctBoMs   int     `json:"distinct_boms"`
	EmbodiedTotalG float64 `json:"embodied_total_g"`
	EmbodiedShareG float64 `json:"embodied_share_g"`
	OperationalG   float64 `json:"operational_g"`
	TotalG         float64 `json:"total_g"`
	// GroupBy names the grouping dimension ("region", "node" or "class") when
	// Groups is present.
	GroupBy string            `json:"group_by,omitempty"`
	Groups  []FleetGroupJSON  `json:"groups,omitempty"`
	Top     []FleetDeviceJSON `json:"top,omitempty"`
}
