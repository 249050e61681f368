package main

import (
	"context"
	"fmt"
	"os"
)

// recordAll runs every input the benchmark can generate — the two
// seed-independent workloads once, the two seeded ones at every seed
// class — and writes their digests as the reference file. For fault-fork
// the reference is each variant's flat runs folded in canonical order.
func recordAll(ctx context.Context, path string) error {
	rec := reference{}
	put := func(workload string, jobs []*job) error {
		for _, o := range runJobs(ctx, jobs, workers, plain) {
			if o.err != nil {
				return fmt.Errorf("record %s: %w", workload, o.err)
			}
			rec.put(workload, o.job.key, o.digest)
		}
		return nil
	}
	if err := put(paperMatrix, newPaperMatrix(nil).jobs); err != nil {
		return err
	}
	if err := put(scale1024, newScale1024(nil).jobs); err != nil {
		return err
	}
	for c := uint64(0); c < seedClasses; c++ {
		if err := put(syncMix, newSyncMix(c, nil).jobs); err != nil {
			return err
		}
		w := newFaultFork(c, nil)
		outs := runJobs(ctx, w.flatJobs(), workers, plain)
		for _, o := range outs {
			if o.err != nil {
				return fmt.Errorf("record %s: %w", faultFork, o.err)
			}
		}
		for v, d := range variantDigests(w.grid, outs) {
			rec.put(faultFork, w.refKey(v), d)
		}
		fmt.Fprintf(os.Stderr, "recorded seed class %d\n", c)
	}
	return rec.write(path)
}
