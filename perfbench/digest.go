package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"dsmsim"
)

// digest folds the deterministic simulated outputs of one run into a
// 64-bit FNV-1a value: execution time, traffic totals, every summed
// counter and stall time, and the link-layer reliability counters. Host
// timings never enter it, so two runs of the same input digest equal on
// any host, and a change to the simulated machine changes the digest.
func digest(r *dsmsim.Result) uint64 {
	t := &r.Total
	fields := []int64{
		int64(r.Time), r.NetMsgs, r.NetBytes,
		t.ReadFaults, t.WriteFaults, t.Invalidations, t.TwinsCreated,
		t.DiffsCreated, t.DiffsApplied, t.DiffPayloadBytes,
		t.WriteNoticesSent, t.WriteNoticesRecv, t.HomeMigrations, t.Forwards,
		t.LeaseRenewals, t.LeaseExpiries, t.TimestampJumps,
		t.LockAcquires, t.BarrierEntries,
		int64(t.Compute), int64(t.ReadStall), int64(t.WriteStall),
		int64(t.LockStall), int64(t.BarrierStall), int64(t.FlushTime),
		int64(t.Stolen), int64(t.Idle),
		r.Retransmits, r.Timeouts, r.WireDrops, r.Duplicates, r.AcksSent,
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range fields {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// combine folds an ordered list of digests into one.
func combine(ds []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range ds {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// reference.json holds the digests recorded from the simulator this
// benchmark was defined against, per workload and run key (see
// refKey). A run whose digest differs counts as failed, so a host-speed
// change that also changes the simulated machine shows as a failure, not
// a gain. Regenerate it with -record only when a change is meant to alter
// simulated results.
//
//go:embed reference.json
var referenceJSON []byte

// reference maps workload name → run key → digest (hex).
type reference map[string]map[string]string

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// check compares one digest against the recorded reference. A key with no
// recorded digest is a failure too: every input the benchmark can generate
// is meant to be covered.
func (ref reference) check(workload, key string, d uint64) error {
	want, ok := ref[workload][key]
	if !ok {
		return fmt.Errorf("%s: no reference digest for %s", workload, key)
	}
	if got := fmt.Sprintf("%016x", d); got != want {
		return fmt.Errorf("%s: %s digest %s, reference %s", workload, key, got, want)
	}
	return nil
}

// put records digest d for key in -record mode.
func (ref reference) put(workload, key string, d uint64) {
	if ref[workload] == nil {
		ref[workload] = map[string]string{}
	}
	ref[workload][key] = fmt.Sprintf("%016x", d)
}

// write stores the digests as indented JSON (map keys come out sorted).
func (ref reference) write(path string) error {
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
