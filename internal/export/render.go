// The exporter's one producer: the fleet registry's carbon accounting as
// exposition lines. It walks the sharded registry through the same
// O(shards) totals and group-by folds the summary API uses — never a
// per-device scan — and emits aggregate embodied/operational/total grams,
// the amortization burn-down (embodied not yet amortized into any device's
// share), and per-region, per-node and per-device-class series.

package export

import (
	"bytes"
	"fmt"
	"time"

	"act/internal/fleet"
)

// groupDims are the grouping dimensions the exporter emits, in emission
// order.
var groupDims = []string{"region", "node", "class"}

// appendFleet appends one tick's samples of reg, stamped ts. One tick costs
// O(shards + groups): the aggregate block comes from the first grouped
// query's totals, and each dimension is one incremental group-by fold. The
// registry is queried once per dimension, so concurrent ingest between
// folds can make dimensions reflect slightly different instants — each
// dimension is internally consistent, which is what a time-series consumer
// needs.
func appendFleet(b *bytes.Buffer, reg *fleet.Registry, ts time.Time) error {
	for i, dim := range groupDims {
		doc, err := reg.Query(fleet.Query{GroupBy: dim})
		if err != nil {
			return fmt.Errorf("export: fleet query by %s: %w", dim, err)
		}
		if i == 0 {
			appendSample(b, "act_fleet_devices", nil, float64(doc.Devices), ts)
			appendSample(b, "act_fleet_distinct_boms", nil, float64(doc.DistinctBoMs), ts)
			appendSample(b, "act_fleet_embodied_total_g", nil, doc.EmbodiedTotalG, ts)
			appendSample(b, "act_fleet_embodied_share_g", nil, doc.EmbodiedShareG, ts)
			appendSample(b, "act_fleet_operational_g", nil, doc.OperationalG, ts)
			appendSample(b, "act_fleet_total_g", nil, doc.TotalG, ts)
			// The amortization burn-down: embodied carbon not yet charged
			// to any device's lifetime share (Eq. 1's T/LT fraction still
			// outstanding). Converges to zero as the fleet ages out.
			appendSample(b, "act_fleet_embodied_remaining_g", nil,
				doc.EmbodiedTotalG-doc.EmbodiedShareG, ts)
		}
		for _, grp := range doc.Groups {
			labels := []label{{"by", dim}, {"key", grp.Key}}
			appendSample(b, "act_fleet_group_devices", labels, float64(grp.Devices), ts)
			appendSample(b, "act_fleet_group_embodied_share_g", labels, grp.EmbodiedShareG, ts)
			appendSample(b, "act_fleet_group_operational_g", labels, grp.OperationalG, ts)
			appendSample(b, "act_fleet_group_total_g", labels, grp.TotalG, ts)
		}
	}
	return nil
}

// Render returns one tick's exposition payload for reg at ts — the exact
// bytes a push tick at ts would deliver (before compression). `act export`
// prints this, which is what makes the CLI and the pushed stream
// byte-comparable.
func Render(reg *fleet.Registry, ts time.Time) ([]byte, error) {
	b := getBuf()
	defer putBuf(b)
	if err := appendFleet(b, reg, ts); err != nil {
		return nil, err
	}
	return bytes.Clone(b.Bytes()), nil
}
