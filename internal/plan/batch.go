// Stage execution: the one entry point both engines share (§4.1.2,
// §4.2). The batch engine's unit of work is a whole record row, not a
// record (§5.2 — "weights are read once for many records"):
// RunStageBatch pushes an entire row through one stage event with one
// timing read and one metrics update, one batched materialization-cache
// probe, and the record loop driving the kernel's Run. The
// request-response engine calls it with a one-row table (see RunPlan).
package plan

import (
	"fmt"
	"time"

	"pretzel/internal/vector"
)

// RunStageBatch executes one stage over a record row: the per-event
// entry point of both engines. It pays the timing reads and the
// stage-counter updates once for the whole row, probes the
// materialization cache for all records up front (running the kernel
// only over the misses and inserting their results back), and hands the
// per-record pushdown accumulator to the kernel through ec.Acc.
// insRows[r] holds record r's stage inputs in Stage.Inputs order; accs
// must have len(outs) entries when the stage uses the accumulator.
func RunStageBatch(s *Stage, ec *Exec, insRows [][]*vector.Vector, outs []*vector.Vector, accs []float32) error {
	kern := s.Kernel()
	if kern == nil {
		return fmt.Errorf("plan: stage %x has no kernel bound", s.ID)
	}
	if len(insRows) != len(outs) {
		return fmt.Errorf("plan: stage %x batch ins/outs mismatch (%d/%d)", s.ID, len(insRows), len(outs))
	}
	if s.UsesAcc && len(accs) < len(outs) {
		return fmt.Errorf("plan: stage %x uses the accumulator but got %d accs for %d records", s.ID, len(accs), len(outs))
	}
	start := time.Now()
	err := guardStage(s, kern, ec, insRows, outs, accs)
	s.metrics.nanos.Add(uint64(time.Since(start)))
	s.metrics.execs.Add(1)
	s.metrics.records.Add(uint64(len(outs)))
	if err != nil {
		s.metrics.errs.Add(1)
	}
	return err
}

// runStageBatchRange handles the batched materialization-cache protocol
// around the kernel invocation for one contiguous row range: hash every
// record's input, serve hits by copy, gather the misses into a
// contiguous sub-batch for the kernel, and insert the fresh results. It
// is the body shared by the sequential event path and the data-parallel
// subtasks (which each bring their own *Exec, so the scratch slices
// never collide); it reports cache hits to the caller instead of
// touching stage counters, so metrics stay one update per stage event
// regardless of how many subtasks the event fanned into.
func runStageBatchRange(s *Stage, kern Kernel, ec *Exec, insRows [][]*vector.Vector, outs []*vector.Vector, accs []float32) (hits int, err error) {
	n := len(outs)
	if n == 0 {
		return 0, nil
	}
	if !s.Materializable || ec.Cache == nil || len(insRows[0]) != 1 {
		return 0, runKernel(kern, ec, insRows, outs, accs, s.UsesAcc)
	}
	if cap(ec.hashes) < n {
		ec.hashes = make([]uint64, n)
	}
	hashes := ec.hashes[:n]
	miss := ec.missIdx[:0]
	for r := 0; r < n; r++ {
		hashes[r] = HashInput(insRows[r][0])
		if !ec.Cache.GetInto(s.ID, hashes[r], outs[r]) {
			miss = append(miss, r)
		}
	}
	ec.missIdx = miss
	hits = n - len(miss)
	if len(miss) == 0 {
		return hits, nil
	}
	if len(miss) == n {
		// Nothing was served: run the whole batch as-is.
		if err := runKernel(kern, ec, insRows, outs, accs, s.UsesAcc); err != nil {
			return hits, err
		}
		for r := 0; r < n; r++ {
			ec.Cache.Put(s.ID, hashes[r], outs[r])
		}
		return hits, nil
	}
	// Gather the misses into a dense sub-batch (executor-owned scratch,
	// no allocation in steady state), run the kernel once over it, then
	// scatter accumulators back and insert the results.
	if cap(ec.missIns) < len(miss) {
		ec.missIns = make([][]*vector.Vector, len(miss))
		ec.missOuts = make([]*vector.Vector, len(miss))
		ec.missAccs = make([]float32, len(miss))
	}
	mIns, mOuts := ec.missIns[:len(miss)], ec.missOuts[:len(miss)]
	var mAccs []float32
	for i, r := range miss {
		mIns[i], mOuts[i] = insRows[r], outs[r]
	}
	if s.UsesAcc {
		mAccs = ec.missAccs[:len(miss)]
		for i, r := range miss {
			mAccs[i] = accs[r]
		}
	}
	if err := runKernel(kern, ec, mIns, mOuts, mAccs, s.UsesAcc); err != nil {
		return hits, err
	}
	if s.UsesAcc {
		for i, r := range miss {
			accs[r] = mAccs[i]
		}
	}
	for _, r := range miss {
		ec.Cache.Put(s.ID, hashes[r], outs[r])
	}
	return hits, nil
}

// runKernel runs the kernel record by record, handing each record's
// pushdown accumulator in and out through ec.Acc for stages that use it.
func runKernel(kern Kernel, ec *Exec, insRows [][]*vector.Vector, outs []*vector.Vector, accs []float32, usesAcc bool) error {
	for r := range outs {
		if usesAcc {
			ec.Acc = accs[r]
		}
		if err := kern.Run(ec, insRows[r], outs[r]); err != nil {
			return fmt.Errorf("record %d: %w", r, err)
		}
		if usesAcc {
			accs[r] = ec.Acc
		}
	}
	return nil
}
