package dsmsim_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"dsmsim"
)

// TestSweepCSVGolden proves the sparse-directory refactor left ≤64-node
// results byte-identical: a fresh sweep's CSV stream must match the
// checked-in golden generated before the representation change.
func TestSweepCSVGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/sweep_golden_16n.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	_, err = dsmsim.Sweep(context.Background(), dsmsim.SweepSpec{
		Apps:          []string{"fft", "lu"},
		Granularities: []int{64, 4096},
		Nodes:         16,
		Size:          dsmsim.Small,
	}, dsmsim.WithCSV(&got))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("sweep CSV diverged from pre-refactor golden testdata/sweep_golden_16n.csv\ngot %d bytes, want %d bytes", got.Len(), len(want))
	}
}

// TestVerifiedSweep256 runs the full application suite under every
// protocol at 256 nodes / 4KB blocks with verification against the
// sequential reference — the headline scaling claim: node counts past the
// old 64-node ceiling work for every app/protocol pair, not just the
// benchmarked ones.
func TestVerifiedSweep256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node full-matrix sweep skipped in -short mode")
	}
	res, err := dsmsim.Sweep(context.Background(), dsmsim.SweepSpec{
		Granularities: []int{4096},
		Nodes:         256,
		Size:          dsmsim.Small,
	}, dsmsim.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	apps := len(dsmsim.AppNames())
	want := apps * len(dsmsim.Protocols)
	n := 0
	for _, run := range res.Runs {
		if run.Point.Sequential {
			continue
		}
		n++
		if run.Result.Nodes != 256 {
			t.Fatalf("%s/%s ran on %d nodes", run.Point.App, run.Point.Protocol, run.Result.Nodes)
		}
	}
	if n != want {
		t.Fatalf("sweep completed %d runs, want %d (%d apps x %d protocols)", n, want, apps, len(dsmsim.Protocols))
	}
}

// TestVerified1024 runs FFT and LU at the new 1024-node bound under all
// three protocols, verified. This is the acceptance bar for lifting
// ErrBadNodes from 64 to 1024.
func TestVerified1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node verified runs skipped in -short mode")
	}
	for _, app := range []string{"fft", "lu"} {
		for _, proto := range dsmsim.Protocols {
			app, proto := app, proto
			t.Run(fmt.Sprintf("%s/%s", app, proto), func(t *testing.T) {
				t.Parallel()
				cfg := dsmsim.Config{Nodes: 1024, BlockSize: 4096, Protocol: proto}
				res, err := dsmsim.StartApp(context.Background(), cfg, app, dsmsim.Small, dsmsim.WithVerify())
				if err != nil {
					t.Fatal(err)
				}
				if res.Time <= 0 {
					t.Fatalf("run reported non-positive virtual time %v", res.Time)
				}
			})
		}
	}
}

// TestScaleFootprint256 pins the memory contract of the sparse directory:
// protocol metadata at 256 nodes must stay proportional to touched blocks
// plus a per-node term, never O(nodes x blocks). A dense per-node home
// cache or dense per-block sharer vectors would blow these ceilings by an
// order of magnitude.
func TestScaleFootprint256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node footprint check skipped in -short mode")
	}
	for _, proto := range dsmsim.Protocols {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			cfg := dsmsim.Config{Nodes: 256, BlockSize: 4096, Protocol: proto}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := dsmsim.StartApp(context.Background(), cfg, "fft", dsmsim.Small)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			// Static protocol metadata: sparse tables for a Small FFT heap
			// measure well under 1 MB; 4 MB leaves headroom while a dense
			// nodes x blocks layout at 256 nodes lands far above it.
			const staticCeiling = 4 << 20
			if res.ProtoStaticBytes > staticCeiling {
				t.Errorf("ProtoStaticBytes = %d, ceiling %d", res.ProtoStaticBytes, staticCeiling)
			}
			// Whole-run allocation volume (simulation + metadata, excluding
			// GC reuse): generous 1 GB ceiling, an order of magnitude above
			// current behaviour, to catch reintroduced dense state.
			if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<30 {
				t.Errorf("run allocated %d bytes total, ceiling %d", delta, 1<<30)
			}
		})
	}
}

// TestScaleFootprint1024 pins the allocation volume of the 1024-node
// point. Lock grants and barrier releases ship write notices as windows
// over the shared interval log; copying each receiver's notices into a
// fresh slice instead costs O(nodes²) bytes per barrier, about 2 GB for
// this LU run, far above the ceiling. The traffic totals are the ones the
// copying implementation produced: the window changes host cost only,
// never what the simulated machine sends.
func TestScaleFootprint1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node footprint check skipped in -short mode")
	}
	for _, tc := range []struct {
		proto             string
		notices, netBytes int64
	}{
		{dsmsim.SWLRC, 161634, 239757164},
		{dsmsim.HLRC, 199485, 239679215},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			cfg := dsmsim.Config{Nodes: 1024, BlockSize: 4096, Protocol: tc.proto}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := dsmsim.StartApp(context.Background(), cfg, "lu", dsmsim.Small)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			const ceiling = 400 << 20
			if delta := after.TotalAlloc - before.TotalAlloc; delta > ceiling {
				t.Errorf("run allocated %d bytes total, ceiling %d", delta, ceiling)
			}
			if res.Total.WriteNoticesRecv != tc.notices || res.NetBytes != tc.netBytes {
				t.Errorf("WriteNoticesRecv/NetBytes = %d/%d, want %d/%d",
					res.Total.WriteNoticesRecv, res.NetBytes, tc.notices, tc.netBytes)
			}
		})
	}
}
