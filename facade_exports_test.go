package act_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"act"
)

// TestFacadeTypedErrors checks the error taxonomy is reachable and
// matchable through the public API alone.
func TestFacadeTypedErrors(t *testing.T) {
	_, err := act.ParseNode("quantum")
	if err == nil {
		t.Fatal("ParseNode accepted an uncharacterized node")
	}
	if !errors.Is(err, act.ErrUnknownNode) {
		t.Errorf("ParseNode error %v does not match act.ErrUnknownNode", err)
	}
	if !act.IsInvalidSpec(err) {
		t.Error("unknown-node error should classify as an invalid spec")
	}

	_, err = act.NewLogic("soc", act.MM2(-1), nil, 1)
	if err == nil {
		t.Fatal("NewLogic accepted a negative area")
	}
	var inv *act.InvalidSpecError
	if !errors.As(err, &inv) {
		t.Fatalf("NewLogic error %v is not an InvalidSpecError", err)
	}
	if inv.Field != "area_mm2" {
		t.Errorf("field = %q, want area_mm2", inv.Field)
	}
}

// TestFacadeDSE drives ParetoFrontier and RankAllOrdered through the
// facade on a small hand-built frontier.
func TestFacadeDSE(t *testing.T) {
	cands := []act.Candidate{
		{Name: "small", Embodied: act.Grams(100), Energy: act.Joules(10), Delay: 2 * time.Second, Area: act.MM2(50)},
		{Name: "big", Embodied: act.Grams(300), Energy: act.Joules(30), Delay: time.Second, Area: act.MM2(150)},
		{Name: "worst", Embodied: act.Grams(400), Energy: act.Joules(40), Delay: 3 * time.Second, Area: act.MM2(200)},
	}
	frontier, err := act.ParetoFrontier(cands, []act.Objective{act.ObjectiveEmbodied, act.ObjectiveDelay})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range frontier {
		names[c.Name] = true
	}
	if !names["small"] || !names["big"] || names["worst"] {
		t.Errorf("frontier = %v, want small+big without worst", frontier)
	}

	rankings, err := act.RankAllOrdered(cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(rankings) != 6 {
		t.Fatalf("got %d metric rankings, want 6 (Table 2)", len(rankings))
	}
	if rankings[0].Metric != act.EDP {
		t.Errorf("first ranking is %s, want EDP (metrics.All order)", rankings[0].Metric)
	}
	for _, r := range rankings {
		if len(r.Ranked) != len(cands) {
			t.Errorf("%s ranked %d candidates, want %d", r.Metric, len(r.Ranked), len(cands))
		}
	}
}

// TestFacadeResilienceExports drives the cancellable frontier through the
// public API alone: a live context reduces, a done one stops the scan.
func TestFacadeResilienceExports(t *testing.T) {
	cands := []act.Candidate{
		{Name: "a", Embodied: act.Grams(1), Energy: act.Joules(1), Delay: time.Second},
		{Name: "b", Embodied: act.Grams(2), Energy: act.Joules(2), Delay: 2 * time.Second},
	}
	frontier, err := act.ParetoFrontierCtx(context.Background(), cands,
		[]act.Objective{act.ObjectiveEmbodied, act.ObjectiveDelay})
	if err != nil || len(frontier) != 1 || frontier[0].Name != "a" {
		t.Errorf("ParetoFrontierCtx = %v, %v", frontier, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := act.ParetoFrontierCtx(ctx, cands,
		[]act.Objective{act.ObjectiveEmbodied, act.ObjectiveDelay}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ParetoFrontierCtx err = %v, want context.Canceled", err)
	}
}
