package plan

import (
	"fmt"

	"pretzel/internal/vector"
)

// RunReference is the engines' test oracle: it evaluates p on one input
// by calling each stage's Kernel.Run in order and threading the pushdown
// accumulator through a fresh Exec's Acc — no materialization cache,
// fan-out, recover barrier or counters, and fresh intermediate vectors
// on every call. It returns the final accumulator value. Serving never
// calls it; equivalence tests hold RunPlan and RunStageBatch to it.
func RunReference(p *Plan, in, out *vector.Vector) (float32, error) {
	ec := &Exec{}
	outputs := make([]*vector.Vector, len(p.Stages))
	for i, s := range p.Stages {
		if i == len(p.Stages)-1 {
			outputs[i] = out
		} else {
			outputs[i] = vector.New(s.OutCap)
		}
		ins := make([]*vector.Vector, len(s.Inputs))
		for c, src := range s.Inputs {
			if src == InputID {
				ins[c] = in
			} else {
				ins[c] = outputs[src]
			}
		}
		if err := s.Kernel().Run(ec, ins, outputs[i]); err != nil {
			return 0, fmt.Errorf("plan %s: stage %d: %w", p.Name, i, err)
		}
	}
	return ec.Acc, nil
}
