package core

import (
	"errors"
	"math"
	"testing"

	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
)

// TestTypedValidationErrors: NewMachine reports each misconfiguration with
// its typed sentinel, so callers can branch with errors.Is instead of
// string-matching.
func TestTypedValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"zero nodes", Config{Nodes: 0, BlockSize: 64, Protocol: SC}, ErrBadNodes},
		{"negative nodes", Config{Nodes: -3, BlockSize: 64, Protocol: SC}, ErrBadNodes},
		{"too many nodes", Config{Nodes: MaxNodes + 1, BlockSize: 64, Protocol: SC}, ErrBadNodes},
		{"zero block", Config{Nodes: 4, BlockSize: 0, Protocol: SC}, ErrBadBlockSize},
		{"non-power-of-two block", Config{Nodes: 4, BlockSize: 96, Protocol: SC}, ErrBadBlockSize},
		{"negative block", Config{Nodes: 4, BlockSize: -64, Protocol: SC}, ErrBadBlockSize},
		{"no protocol", Config{Nodes: 4, BlockSize: 64}, ErrNoProtocol},
		{"unknown protocol", Config{Nodes: 4, BlockSize: 64, Protocol: "tso"}, ErrUnknownProtocol},
		{"bad fault probability", Config{Nodes: 4, BlockSize: 64, Protocol: SC,
			Faults: faults.NewPlan(faults.Drop(1.5))}, ErrBadFaultPlan},
		{"NaN fault probability", Config{Nodes: 4, BlockSize: 64, Protocol: SC,
			Faults: faults.NewPlan(faults.Drop(math.NaN()))}, ErrBadFaultPlan},
		{"NaN straggler factor", Config{Nodes: 4, BlockSize: 64, Protocol: SC,
			Faults: faults.NewPlan(faults.Straggler(1, math.NaN(), 0, 0))}, ErrBadFaultPlan},
		{"fault node out of range", Config{Nodes: 4, BlockSize: 64, Protocol: SC,
			Faults: faults.NewPlan(faults.Partition(0, 4, 0, 1000))}, ErrBadFaultPlan},
		{"bad straggler factor", Config{Nodes: 4, BlockSize: 64, Protocol: SC,
			Faults: faults.NewPlan(faults.Straggler(1, 0.5, 0, 0))}, ErrBadFaultPlan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewMachine(tc.cfg)
			if err == nil {
				t.Fatal("NewMachine accepted an invalid config")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
		})
	}
}

// TestFaultPlanErrorKeepsCause: the wrapped fault error still carries the
// faults package's own sentinel, so both layers are matchable.
func TestFaultPlanErrorKeepsCause(t *testing.T) {
	_, err := NewMachine(Config{Nodes: 4, BlockSize: 64, Protocol: SC,
		Faults: faults.NewPlan(faults.Drop(2))})
	if !errors.Is(err, ErrBadFaultPlan) || !errors.Is(err, faults.ErrBadProbability) {
		t.Fatalf("error %v should wrap both ErrBadFaultPlan and faults.ErrBadProbability", err)
	}
}

// TestValidConfigsStillAccepted guards against over-tightening: the
// boundary values and the sequential-default paths must keep working.
func TestValidConfigsStillAccepted(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 1, BlockSize: 64, Protocol: SC},
		{Nodes: 64, BlockSize: 4096, Protocol: HLRC},
		{Nodes: 65, BlockSize: 4096, Protocol: SC}, // first count past the old bitmask ceiling
		{Nodes: MaxNodes, BlockSize: 4096, Protocol: HLRC},
		{Sequential: true, BlockSize: 64}, // nodes and protocol defaulted
		{Nodes: 4, BlockSize: 64, Protocol: SWLRC,
			Faults: faults.NewPlan(faults.Drop(0.01), faults.Seed(7))},
		{Nodes: 4, BlockSize: 64, Protocol: SC, WhatIf: &critpath.Scale{Class: critpath.ClassLock}},
		{Nodes: 4, BlockSize: 64, Protocol: SC, WhatIf: &critpath.Scale{Class: critpath.ClassBarrier, PPM: 100e6}},
	} {
		if _, err := NewMachine(cfg); err != nil {
			t.Errorf("NewMachine(%+v): %v", cfg, err)
		}
	}
}

// TestWhatIfScaleValidated: a what-if scale outside what ParseScale
// accepts (a negative or over-range factor, or no cost class) is rejected
// before the run, not simulated.
func TestWhatIfScaleValidated(t *testing.T) {
	for _, s := range []critpath.Scale{
		{Class: critpath.ClassCompute, PPM: -1},
		{Class: critpath.ClassCompute, PPM: math.MinInt64}, // what "compute=nan" parsed to
		{Class: critpath.ClassMsg, PPM: 100e6 + 1},
		{Class: critpath.ClassNone, PPM: 1e6},
		{Class: critpath.NumClasses, PPM: 1e6},
	} {
		if _, err := NewMachine(Config{Nodes: 4, BlockSize: 64, Protocol: SC, WhatIf: &s}); err == nil {
			t.Errorf("NewMachine accepted what-if scale %+v", s)
		}
	}
}
