package fab

import (
	"fmt"

	"act/internal/units"
)

// A YieldModel maps a die area to the fraction of manufactured dies that
// are functional (0 < Y <= 1). The paper treats yield as a free scalar
// (Table 1: "Y, Fab yield, 0-1"), which FixedYield is; the model takes the
// die area so that a defect-density model can plug in.
type YieldModel interface {
	// Yield returns the expected yield for a die of the given area.
	Yield(area units.Area) float64
}

// FixedYield is a constant area-independent yield, the paper's model.
type FixedYield float64

// Yield implements YieldModel.
func (y FixedYield) Yield(units.Area) float64 { return float64(y) }

// String renders the yield as a percentage.
func (y FixedYield) String() string { return fmt.Sprintf("fixed %.1f%%", float64(y)*100) }

// ValidYield reports whether a yield value is usable by the model
// (strictly positive, at most 1).
func ValidYield(y float64) bool { return y > 0 && y <= 1 }
