package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunAccel(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"accel", "-qos", "30", "-budget-mm2", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"16nm", "28nm", "carbon-min @ 30 FPS", "max-perf ≤ 2.0 mm²"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("accel output missing %q", want)
		}
	}
}

func TestRunAccelInfeasibleQoS(t *testing.T) {
	// An unreachable QoS target degrades to a note, not an error.
	var out bytes.Buffer
	if err := run([]string{"accel", "-qos", "1000000"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "infeasible") {
		t.Error("expected an infeasibility note")
	}
}

func TestRunSSD(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"ssd", "-mission-years", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "optimal over-provisioning: 34%") {
		t.Errorf("ssd output missing the 4-year optimum:\n%s", out.String())
	}
}

func TestRunLifetime(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"lifetime"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "optimal lifetime: 5 years") {
		t.Errorf("lifetime output missing the 5-year optimum:\n%s", out.String())
	}
}

func TestRunSoC(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"soc"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Kirin 990", "Snapdragon 835", "Metric winners"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("soc output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no args: expected usage error")
	}
	if err := run([]string{"warp-drive"}, &out); err == nil {
		t.Error("unknown sweep: expected error")
	}
	if err := run([]string{"accel", "-bogus-flag"}, &out); err == nil {
		t.Error("bad flag: expected error")
	}
}
