package core

import (
	"context"
	"testing"

	"dsmsim/internal/sim"
)

// TestAccessNoFaultZeroAlloc pins the validated-span fast path: once a
// block has been validated and no tag in the space has changed, repeated
// accesses to it must not allocate (and must not fault). The measurement
// runs inside the app's proc body, where access is ordinarily called.
// The matrix covers both observers: the sharing profiler and the
// critical-path profiler, each off (nil hook fields) and on.
func TestAccessNoFaultZeroAlloc(t *testing.T) {
	for _, proto := range []string{SC, SWLRC, HLRC} {
		for _, obs := range []struct {
			name           string
			prof, critpath bool
		}{{"", false, false}, {"/profiled", true, false}, {"/critpath", false, true}} {
			proto, obs := proto, obs
			name := proto + obs.name
			t.Run(name, func(t *testing.T) {
				var addr int
				var reads, writes float64
				app := &testApp{
					name: "allocprobe",
					heap: 4096,
					setup: func(h *Heap) {
						addr = h.AllocF64s(8)
					},
					run: func(c *Ctx) {
						// Fault the block in once for read and write.
						c.WriteF64(addr, 1.0)
						_ = c.ReadF64(addr)
						var sink float64
						reads = testing.AllocsPerRun(200, func() {
							sink += c.ReadF64(addr)
						})
						writes = testing.AllocsPerRun(200, func() {
							c.WriteF64(addr, sink)
						})
					},
					verify: func(h *Heap) error { return nil },
				}
				m, err := NewMachine(Config{
					Nodes: 1, BlockSize: 1024, Protocol: proto,
					Limit:        100 * sim.Second,
					ShareProfile: obs.prof, CritPath: obs.critpath,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(context.Background(), app); err != nil {
					t.Fatal(err)
				}
				if reads != 0 {
					t.Errorf("no-fault ReadF64 allocated %.1f per call, want 0", reads)
				}
				if writes != 0 {
					t.Errorf("no-fault WriteF64 allocated %.1f per call, want 0", writes)
				}
			})
		}
	}
}
