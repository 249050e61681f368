package core

import (
	"errors"
	"testing"

	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
)

// FuzzConfigValidate: Validate never panics; it rejects a bad shape,
// protocol or fault plan with a typed error, and a what-if scale exactly
// when ParseScale would; and an accepted config's fault plan compiles for
// its cluster.
func FuzzConfigValidate(f *testing.F) {
	f.Add(16, 4096, "hlrc", false, "", false, uint8(0), int64(0))
	f.Add(4, 64, "sc", false, "drop=0.01,seed=3", true, uint8(critpath.ClassLock), int64(500000))
	f.Add(1024, 256, "tlc", false, "partition=0-1023@1ms:2ms", true, uint8(critpath.ClassMsg), int64(100e6))
	f.Add(0, 64, "", true, "", false, uint8(0), int64(0))
	f.Add(4, 96, "swlrc", false, "drop=NaN", false, uint8(0), int64(0))
	f.Add(4, 64, "dc", false, "linkdrop=0-1:NaN", true, uint8(critpath.ClassCompute), int64(-9223345151933000000))
	f.Add(4, 64, "tso", false, "dup=nan", true, uint8(critpath.ClassNone), int64(1))
	f.Fuzz(func(t *testing.T, nodes, block int, protocol string, seq bool, spec string, scaled bool, class uint8, ppm int64) {
		cfg := Config{Nodes: nodes, BlockSize: block, Protocol: protocol, Sequential: seq}
		if plan, err := faults.Parse(spec); err == nil {
			cfg.Faults = plan
		}
		scaleOK := true
		if scaled {
			cfg.WhatIf = &critpath.Scale{Class: critpath.Class(class), PPM: ppm}
			_, err := critpath.ParseScale(cfg.WhatIf.String())
			scaleOK = err == nil
		}
		err := cfg.Validate()
		if err == nil {
			if !scaleOK {
				t.Fatalf("accepted what-if scale %+v", *cfg.WhatIf)
			}
			cfg.Faults.Compile(cfg.Nodes)
			return
		}
		for _, typed := range []error{ErrBadNodes, ErrBadBlockSize, ErrNoProtocol, ErrUnknownProtocol, ErrBadFaultPlan} {
			if errors.Is(err, typed) {
				return
			}
		}
		if scaleOK {
			t.Fatalf("untyped error %v for a config whose what-if scale is valid", err)
		}
	})
}
