// Columnar decode: one scenario.Spec appended into the flat columns, with
// every characterization lookup funneled through the resolver so a batch
// pays for each distinct fab configuration and technology spelling once.
// The decoder mirrors the scalar validation conditions exactly — it must
// mark an item bad precisely when scenario.Spec.Result would reject it —
// but it never constructs error values itself: bad items are re-evaluated
// by the scalar oracle, which produces the canonical typed error.

package colbatch

import (
	"math"
	"strings"

	"act/internal/acterr"
	"act/internal/core"
	"act/internal/fab"
	"act/internal/memdb"
	"act/internal/scenario"
	"act/internal/storagedb"
	"act/internal/units"
)

// fabKey identifies a distinct fab configuration: the raw node spelling
// plus the (default-normalized at lookup time, raw here) fab overrides.
// Two logic entries with the same key share one CPA resolution.
type fabKey struct {
	node                 string
	ci, abatement, yield float64
}

type fabRes struct {
	cpaG float64 // CPA in g/cm² (Eq. 5); FixedYield makes it area-free
	bad  bool
}

type dramRes struct {
	cpsG float64
	bad  bool
}

type storRes struct {
	cpsG float64
	hdd  bool
	bad  bool
}

// resolver caches table resolutions. Entries are deterministic functions
// of immutable characterization tables, so they stay valid across batches
// and across pool cycles; trim only guards against unbounded growth from
// adversarial distinct inputs. Transient (injected) lookup faults are
// never cached — see resolveDRAM.
type resolver struct {
	fabs  map[fabKey]fabRes
	drams map[string]dramRes
	stors map[string]storRes
}

func newResolver() resolver {
	return resolver{
		fabs:  make(map[fabKey]fabRes),
		drams: make(map[string]dramRes),
		stors: make(map[string]storRes),
	}
}

func (r *resolver) trim() {
	if len(r.fabs) > maxResolverEntries {
		clear(r.fabs)
	}
	if len(r.drams) > maxResolverEntries {
		clear(r.drams)
	}
	if len(r.stors) > maxResolverEntries {
		clear(r.stors)
	}
}

// resolveFab resolves one distinct fab configuration to its CPA the exact
// way scenario.buildFab + fab.CPA do: same option order, same numerator,
// same division. The paper's yield model is a fixed fraction, so CPA is
// area-independent and one number per configuration suffices.
func (r *resolver) resolveFab(k fabKey) fabRes {
	if res, ok := r.fabs[k]; ok {
		return res
	}
	res := func() fabRes {
		params, err := fab.ParseNode(k.node)
		if err != nil {
			return fabRes{bad: true}
		}
		var opts []fab.Option
		if k.ci != 0 {
			opts = append(opts, fab.WithCarbonIntensity(units.GramsPerKWh(k.ci)))
		}
		if k.abatement != 0 {
			opts = append(opts, fab.WithAbatement(k.abatement))
		}
		if k.yield != 0 {
			opts = append(opts, fab.WithYield(fab.FixedYield(k.yield)))
		}
		f, err := fab.New(params.Node, opts...)
		if err != nil {
			return fabRes{bad: true}
		}
		cpa, err := f.CPA(0)
		if err != nil {
			return fabRes{bad: true}
		}
		return fabRes{cpaG: cpa.GramsPerCM2()}
	}()
	r.fabs[k] = res
	return res
}

// resolveDRAM resolves a raw technology spelling through memdb.Parse. A
// transient lookup fault (the chaos seam) is reported via ok=false and
// NOT cached: the item falls back to the scalar oracle, which re-runs the
// lookup and either absorbs the fault or surfaces it to the caller.
func (r *resolver) resolveDRAM(tech string) (dramRes, bool) {
	if res, ok := r.drams[tech]; ok {
		return res, true
	}
	e, err := memdb.Parse(tech)
	if err != nil {
		if acterr.IsTransient(err) {
			return dramRes{bad: true}, false
		}
		res := dramRes{bad: true}
		r.drams[tech] = res
		return res, true
	}
	res := dramRes{cpsG: e.CPS.GramsPerGB()}
	r.drams[tech] = res
	return res, true
}

func (r *resolver) resolveStorage(tech string) storRes {
	if res, ok := r.stors[tech]; ok {
		return res
	}
	var res storRes
	e, err := storagedb.Parse(tech)
	if err != nil {
		res = storRes{bad: true}
	} else {
		res = storRes{cpsG: e.CPS.GramsPerGB(), hdd: e.Class == storagedb.HDD}
	}
	r.stors[tech] = res
	return res
}

// transportFactor mirrors core's g-per-tonne-km table, keyed by the
// canonical (lowercased, trimmed) mode the scalar path switches on.
func transportFactor(mode string) (float64, bool) {
	switch core.TransportMode(mode) {
	case core.TransportAir:
		return 600, true
	case core.TransportSea:
		return 10, true
	case core.TransportRoad:
		return 80, true
	case core.TransportRail:
		return 25, true
	}
	return 0, false
}

// canonName matches scenario's canonicalization of technology/mode names.
func canonName(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// appendSpec decodes one spec into the columns. bomOnly skips the usage
// and life-cycle sections (the fleet Recompute shape). Any condition the
// scalar path would reject — or any lookup the fast path cannot resolve —
// marks the item bad; its flat appends are rolled back so the columns
// only ever hold provably valid rows.
func (b *batch) appendSpec(s *scenario.Spec, bomOnly bool) {
	i := b.n
	b.n++

	b.name = append(b.name, s.Name)
	b.bad = append(b.bad, false)
	b.hasLC = append(b.hasLC, false)
	b.hasEOL = append(b.hasEOL, false)
	b.appTime = append(b.appTime, 0)
	b.lifetime = append(b.lifetime, 0)
	b.powerW = append(b.powerW, 0)
	b.ci = append(b.ci, 0)
	b.eff = append(b.eff, 0)
	b.extraICs = append(b.extraICs, 0)
	b.eolProcG = append(b.eolProcG, 0)
	b.eolCredG = append(b.eolCredG, 0)
	b.opG = append(b.opG, 0)
	b.embG = append(b.embG, 0)
	b.shareG = append(b.shareG, 0)
	b.packG = append(b.packG, 0)
	b.icN = append(b.icN, 0)
	b.trG = append(b.trG, 0)
	b.eolG = append(b.eolG, 0)

	logicStart := len(b.logicName)
	dramStart := len(b.dramName)
	storStart := len(b.storName)
	legStart := len(b.legFactor)

	// markBad rolls the item's flat appends back and records empty CSR
	// ranges; the scalar oracle will own this item.
	markBad := func() {
		b.bad[i] = true
		b.logicName = b.logicName[:logicStart]
		b.logicArea = b.logicArea[:logicStart]
		b.logicCPA = b.logicCPA[:logicStart]
		b.logicCnt = b.logicCnt[:logicStart]
		b.dramName = b.dramName[:dramStart]
		b.dramCPS = b.dramCPS[:dramStart]
		b.dramCap = b.dramCap[:dramStart]
		b.storName = b.storName[:storStart]
		b.storCPS = b.storCPS[:storStart]
		b.storCap = b.storCap[:storStart]
		b.storHDD = b.storHDD[:storStart]
		b.legFactor = b.legFactor[:legStart]
		b.legMass = b.legMass[:legStart]
		b.legDist = b.legDist[:legStart]
		b.logicOff = append(b.logicOff, int32(logicStart))
		b.dramOff = append(b.dramOff, int32(dramStart))
		b.storOff = append(b.storOff, int32(storStart))
		b.legOff = append(b.legOff, int32(legStart))
	}

	// Device section — mirrors Spec.Device's conditions in order.
	if s.Name == "" || len(s.Logic)+len(s.DRAM)+len(s.Storage) == 0 {
		markBad()
		return
	}
	for _, l := range s.Logic {
		k := fabKey{node: l.Node}
		if l.Fab != nil {
			k.ci = l.Fab.CarbonIntensity
			k.abatement = l.Fab.Abatement
			k.yield = l.Fab.Yield
		}
		fr := b.res.resolveFab(k)
		count := l.Count
		if count == 0 {
			count = 1
		}
		if fr.bad || l.Name == "" || !(l.AreaMM2 > 0) || count <= 0 || count > math.MaxInt32 {
			markBad()
			return
		}
		b.logicName = append(b.logicName, l.Name)
		b.logicArea = append(b.logicArea, l.AreaMM2)
		b.logicCPA = append(b.logicCPA, fr.cpaG)
		b.logicCnt = append(b.logicCnt, int32(count))
	}
	for _, m := range s.DRAM {
		dr, ok := b.res.resolveDRAM(m.Technology)
		if !ok || dr.bad || m.Name == "" || !(m.CapacityGB > 0) {
			markBad()
			return
		}
		b.dramName = append(b.dramName, m.Name)
		b.dramCPS = append(b.dramCPS, dr.cpsG)
		b.dramCap = append(b.dramCap, m.CapacityGB)
	}
	for _, st := range s.Storage {
		sr := b.res.resolveStorage(st.Technology)
		if sr.bad || st.Name == "" || !(st.CapacityGB > 0) {
			markBad()
			return
		}
		b.storName = append(b.storName, st.Name)
		b.storCPS = append(b.storCPS, sr.cpsG)
		b.storCap = append(b.storCap, st.CapacityGB)
		b.storHDD = append(b.storHDD, sr.hdd)
	}
	if s.ExtraICs > 0 {
		if s.ExtraICs > math.MaxInt32 {
			markBad()
			return
		}
		b.extraICs[i] = int32(s.ExtraICs)
	}

	if !bomOnly {
		// Usage section — mirrors Spec.usage + lifetimeDuration + the
		// appTime-vs-lifetime comparison in Spec.Assess.
		u := s.Usage
		ci := u.IntensityGPerKWh
		if ci == 0 {
			ci = 300 // US grid default
		}
		if ci < 0 || u.PowerW < 0 || !(u.AppHours > 0) {
			markBad()
			return
		}
		switch {
		case u.PUE != 0 && u.BatteryEfficiency != 0:
			markBad()
			return
		case u.PUE != 0:
			if u.PUE < 1 {
				markBad()
				return
			}
			b.eff[i] = u.PUE
		case u.BatteryEfficiency != 0:
			if u.BatteryEfficiency <= 0 || u.BatteryEfficiency > 1 {
				markBad()
				return
			}
			b.eff[i] = 1 / u.BatteryEfficiency
		}
		lt := s.Lifetime()
		if lt <= 0 {
			markBad()
			return
		}
		appTime := units.Years(u.AppHours / (365.25 * 24))
		lifetime := units.Years(lt)
		// core.Footprint re-validates at the duration level: a positive
		// float lifetime can still truncate to a non-positive duration.
		if lifetime <= 0 || appTime < 0 || appTime > lifetime {
			markBad()
			return
		}
		b.appTime[i] = appTime
		b.lifetime[i] = lifetime
		b.powerW[i] = u.PowerW
		b.ci[i] = ci

		// Life-cycle section — mirrors Spec.LifeCycle's leg validation.
		if s.HasLifeCycle() {
			b.hasLC[i] = true
			for _, leg := range s.Transport {
				factor, ok := transportFactor(canonName(leg.Mode))
				if !ok || leg.MassKg < 0 || leg.DistanceKm < 0 {
					markBad()
					return
				}
				b.legFactor = append(b.legFactor, factor)
				b.legMass = append(b.legMass, leg.MassKg)
				b.legDist = append(b.legDist, leg.DistanceKm)
			}
			if s.EndOfLife != nil {
				b.hasEOL[i] = true
				b.eolProcG[i] = units.Kilograms(s.EndOfLife.ProcessingKg).Grams()
				b.eolCredG[i] = units.Kilograms(s.EndOfLife.RecyclingCreditKg).Grams()
			}
		}
	}

	b.logicOff = append(b.logicOff, int32(len(b.logicName)))
	b.dramOff = append(b.dramOff, int32(len(b.dramName)))
	b.storOff = append(b.storOff, int32(len(b.storName)))
	b.legOff = append(b.legOff, int32(len(b.legFactor)))
}

// scalarEmbodied is the fleet-shaped oracle: the BoM-only scalar path
// (Device → Embodied → Total) that EmbodiedTotals falls back to.
func scalarEmbodied(s *scenario.Spec) (float64, error) {
	d, err := s.Device()
	if err != nil {
		return 0, err
	}
	br, err := core.Embodied(d)
	if err != nil {
		return 0, err
	}
	return br.Total().Grams(), nil
}
