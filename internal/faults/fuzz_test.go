package faults

import (
	"errors"
	"testing"
)

// fuzzNodes is the cluster size fuzzed plans are validated and compiled
// for.
const fuzzNodes = 4

// checkPlan holds every parsed plan to the package's contract: validating
// it for a cluster either passes or fails with one of the typed errors,
// and a plan that passes compiles, and its injector draws, without
// panicking.
func checkPlan(t *testing.T, p *Plan) {
	t.Helper()
	if err := p.ValidateFor(fuzzNodes); err != nil {
		for _, typed := range []error{ErrBadProbability, ErrBadWindow, ErrBadNode, ErrBadFactor, ErrBadDuration} {
			if errors.Is(err, typed) {
				return
			}
		}
		t.Fatalf("untyped validation error: %v", err)
	}
	in := p.Compile(fuzzNodes)
	in.Activate()
	for src := 0; src < fuzzNodes; src++ {
		for dst := 0; dst < fuzzNodes; dst++ {
			in.Cut(src, dst, 1000)
			in.DropDraw(src, dst)
		}
		in.Dilation(src, 1000)
	}
	in.DupDraw()
	in.JitterDraw()
}

func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "drop=0.01", "dup=0.5,seed=7", "jitter=5us,rto=1ms", "start=3",
		"partition=0-2@1ms:2ms", "linkdrop=1-3:0.2", "partition=0-9@0:1",
		"drop=NaN", "dup=nan", "linkdrop=0-1:NaN", "drop=-0", "drop=0x1p-4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		checkPlan(t, p)
	})
}

func FuzzParseStragglers(f *testing.F) {
	for _, s := range []string{
		"3x2.0@1ms:2ms, 1x1.5", "0x1", "1x4@0:", "2x2@5:1", "7x2",
		"1xNaN", "1xnan", "1x+Inf", "1x0.5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseStragglers(spec)
		if err != nil {
			return
		}
		checkPlan(t, NewPlan(rules...))
	})
}
