// Structured result emission. Walk hands an item's result document to a
// Sink as fields, so a consumer that wants values rather than bytes (the
// script host's footprint()) need not re-parse the document. It mirrors
// appendDocTo field for field and expression for expression; the floats
// it emits are the ones the document encodes, and AppendJSONFloat's
// shortest round-trip form parses back to the same bits. appendDocTo does
// not run through Walk: driven through this interface, the byte encoder
// made BenchmarkColBatchEvalCorpus about 45% slower.

package colbatch

import "strconv"

// Sink receives one result document from Results.Walk, field by field in
// document order. key names the field and is "" for an array element; n
// is how many fields or elements the opened object or array will hold.
type Sink interface {
	Object(key string, n int)
	Array(key string, n int)
	End()
	String(key, s string)
	Float(key string, f float64)
}

// Walk emits item i's result document to s and reports true, or emits
// nothing and reports false when the item has no columnar values: it
// errored, or the scalar oracle answered it and its values live only in
// Doc(i). Valid until Close.
func (r *Results) Walk(i int, s Sink) bool {
	if r.b.bad[i] {
		return false
	}
	r.b.walk(i, s)
	return true
}

func (b *batch) walk(i int, s Sink) {
	fields := 8
	if b.hasLC[i] {
		fields++
	}
	s.Object("", fields)
	s.String("device", b.name[i])
	s.Float("app_hours", b.appTime[i].Hours())
	s.Float("lifetime_years", b.lifetime[i].Hours()/(365.25*24))
	s.Float("operational_g", b.opG[i])
	s.Float("embodied_total_g", b.embG[i])
	s.Float("embodied_share_g", b.shareG[i])
	s.Float("total_g", b.opG[i]+b.shareG[i])

	items := int(b.logicOff[i+1]-b.logicOff[i]) + int(b.dramOff[i+1]-b.dramOff[i]) +
		int(b.storOff[i+1]-b.storOff[i])
	if b.icN[i] > 0 {
		items++
	}
	s.Array("breakdown", items)
	for j := b.logicOff[i]; j < b.logicOff[i+1]; j++ {
		walkBreakdownItem(s, b.logicName[j], "logic", b.logicEmb[j])
	}
	for j := b.dramOff[i]; j < b.dramOff[i+1]; j++ {
		walkBreakdownItem(s, b.dramName[j], "dram", b.dramEmb[j])
	}
	for j := b.storOff[i]; j < b.storOff[i+1]; j++ {
		kind := "ssd"
		if b.storHDD[j] {
			kind = "hdd"
		}
		walkBreakdownItem(s, b.storName[j], kind, b.storEmb[j])
	}
	if b.icN[i] > 0 {
		name := "packaging (" + strconv.FormatInt(b.icN[i], 10) + " ICs)"
		walkBreakdownItem(s, name, "packaging", b.packG[i])
	}
	s.End()

	if b.hasLC[i] {
		lcTotal := ((b.embG[i] + b.trG[i]) + b.opG[i]) + b.eolG[i]
		s.Object("life_cycle", 2)
		s.Array("phases", 4)
		walkPhase(s, "manufacturing", b.embG[i], lcTotal)
		walkPhase(s, "transport", b.trG[i], lcTotal)
		walkPhase(s, "use", b.opG[i], lcTotal)
		walkPhase(s, "end-of-life", b.eolG[i], lcTotal)
		s.End()
		s.Float("total_g", lcTotal)
		s.End()
	}
	s.End()
}

func walkBreakdownItem(s Sink, name, kind string, g float64) {
	s.Object("", 3)
	s.String("name", name)
	s.String("kind", kind)
	s.Float("embodied_g", g)
	s.End()
}

func walkPhase(s Sink, phase string, g, lcTotal float64) {
	share := 0.0
	if lcTotal != 0 {
		share = g / lcTotal
	}
	s.Object("", 3)
	s.String("phase", phase)
	s.Float("emissions_g", g)
	s.Float("share", share)
	s.End()
}
