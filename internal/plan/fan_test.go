package plan

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"pretzel/internal/ops"
	"pretzel/internal/store"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

// goroutineFan is a test Fanout that runs every range on its own
// goroutine with its own Exec — the worst case for the range body's
// independence (maximum concurrency, no executor affinity). It mirrors
// the sched implementation's contract: Fan returns only after all
// ranges finish, first error wins.
type goroutineFan struct {
	grain  int
	fanned int // events that actually fanned
}

func (f *goroutineFan) ShouldFan(n int) bool { return n > f.grain }

func (f *goroutineFan) Fan(n int, run func(lo, hi int, ec *Exec) error) error {
	f.fanned++
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for lo := 0; lo < n; lo += f.grain {
		hi := lo + f.grain
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			err := run(lo, hi, &Exec{Pool: vector.NewPool()})
			if err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(lo, hi)
	}
	wg.Wait()
	return first
}

// TestRunStageBatchFannedEquivalence: a fanned batch and the
// sequential batch path must both produce bit-identical outputs and
// accumulator values to the per-record reference oracle, and per-stage
// counters must still count one execution per stage event.
func TestRunStageBatchFannedEquivalence(t *testing.T) {
	const nRec = 100
	ins := batchInputs(nRec)
	wantOuts, wantAccs := referenceRun(t, saMiniPlan(t), ins)

	seqPl := saMiniPlan(t)
	seq := &Exec{Pool: vector.NewPool()}
	seqOuts := make([]*vector.Vector, nRec)
	for r := range seqOuts {
		seqOuts[r] = vector.New(0)
	}
	seqAccs := runPlanBatched(t, seqPl, seq, ins, seqOuts)
	for r := range ins {
		if !seqOuts[r].Equal(wantOuts[r]) || seqAccs[r] != wantAccs[r] {
			t.Fatalf("record %d: sequential %v (acc %v) != reference %v (acc %v)", r, seqOuts[r], seqAccs[r], wantOuts[r], wantAccs[r])
		}
	}

	fanPl := saMiniPlan(t)
	fan := &goroutineFan{grain: 8}
	ec := &Exec{Pool: vector.NewPool(), Fan: fan}
	gotOuts := make([]*vector.Vector, nRec)
	for r := range gotOuts {
		gotOuts[r] = vector.New(0)
	}
	gotAccs := runPlanBatched(t, fanPl, ec, ins, gotOuts)

	if fan.fanned != len(fanPl.Stages) {
		t.Fatalf("fanned %d stage events, want %d", fan.fanned, len(fanPl.Stages))
	}
	for r := range ins {
		if !gotOuts[r].Equal(wantOuts[r]) {
			t.Fatalf("record %d: fanned %v != reference %v", r, gotOuts[r], wantOuts[r])
		}
		if gotAccs[r] != wantAccs[r] {
			t.Fatalf("record %d: fanned acc %v != reference acc %v", r, gotAccs[r], wantAccs[r])
		}
	}
	for i, s := range fanPl.Stages {
		st := s.Stats()
		if st.Execs != 1 {
			t.Fatalf("stage %d: %d executions for one fanned event, want 1", i, st.Execs)
		}
		if st.Records != nRec {
			t.Fatalf("stage %d: records=%d, want %d", i, st.Records, nRec)
		}
	}
}

// TestRunStageBatchFannedMaterialization: subtasks run the batched
// cache protocol independently against the shared materialization
// cache, and the event's cache hits aggregate across subtasks into one
// counter update.
func TestRunStageBatchFannedMaterialization(t *testing.T) {
	cd, wd := saDicts(t)
	fk := &FeaturizeKernel{
		Char:    text.CharNgramConfig{MinN: 2, MaxN: 3, Dict: cd},
		Word:    text.WordNgramConfig{MaxN: 1, Dict: wd},
		CharDim: cd.Size(),
	}
	st := &Stage{ID: 7, Kern: fk, Materializable: true, Ops: []ops.Op{&ops.Tokenizer{}}, Inputs: []int{InputID}}
	cache := store.NewMatCache(1 << 20)
	ec := &Exec{Pool: vector.NewPool(), Cache: cache, Fan: &goroutineFan{grain: 8}}

	const nRec = 48
	ins := batchInputs(nRec)
	insRows := make([][]*vector.Vector, nRec)
	outs := make([]*vector.Vector, nRec)
	for r := range ins {
		insRows[r] = []*vector.Vector{ins[r]}
		outs[r] = vector.New(0)
	}
	if err := RunStageBatch(st, ec, insRows, outs, nil); err != nil {
		t.Fatal(err)
	}
	// batchInputs cycles 4 documents; after the first event the cache
	// holds all 4 and a repeat event hits on every record. (Within the
	// first event the hit count is timing-dependent: a subtask may hit
	// entries a concurrent sibling already inserted.)
	if got := cache.Stats().Entries; got != 4 {
		t.Fatalf("entries=%d, want 4", got)
	}
	firstHits := st.Stats().CacheHits
	outs2 := make([]*vector.Vector, nRec)
	for r := range outs2 {
		outs2[r] = vector.New(0)
	}
	if err := RunStageBatch(st, ec, insRows, outs2, nil); err != nil {
		t.Fatal(err)
	}
	if hits := st.Stats().CacheHits - firstHits; hits != nRec {
		t.Fatalf("repeat-event cache hits=%d, want %d (aggregated across subtasks)", hits, nRec)
	}
	wantOuts, _ := referenceRun(t, &Plan{Name: "featurize", Stages: []*Stage{st}}, ins)
	for r := range outs {
		if !outs[r].Equal(wantOuts[r]) {
			t.Fatalf("record %d: fanned result %v != reference %v", r, outs[r], wantOuts[r])
		}
		if !outs2[r].Equal(outs[r]) {
			t.Fatalf("record %d: cache-served fanned result diverged", r)
		}
	}
	if st.Stats().Execs != 2 {
		t.Fatalf("execs=%d, want 2", st.Stats().Execs)
	}
}

// panicOnRecordKernel panics while processing any record whose text
// contains the trigger substring.
type panicOnRecordKernel struct{ trigger string }

func (k *panicOnRecordKernel) Kind() string { return "panic-on-record" }
func (k *panicOnRecordKernel) Run(ec *Exec, ins []*vector.Vector, out *vector.Vector) error {
	for i := 0; i+len(k.trigger) <= len(ins[0].Text); i++ {
		if ins[0].Text[i:i+len(k.trigger)] == k.trigger {
			panic("poisoned record")
		}
	}
	out.UseDense(1)[0] = 1
	return nil
}

// TestRunStageBatchFannedPanicContainment: a panic inside one subtask
// surfaces as a *PanicError for the whole event — the per-subtask
// recover barrier fires, the join still completes, and healthy ranges
// are unaffected.
func TestRunStageBatchFannedPanicContainment(t *testing.T) {
	st := &Stage{ID: 9, Kern: &panicOnRecordKernel{trigger: "refund"}}
	ec := &Exec{Pool: vector.NewPool(), Fan: &goroutineFan{grain: 4}}
	const nRec = 32
	ins := batchInputs(nRec) // every 2nd/4th doc contains "refund"
	insRows := make([][]*vector.Vector, nRec)
	outs := make([]*vector.Vector, nRec)
	for r := range ins {
		insRows[r] = []*vector.Vector{ins[r]}
		outs[r] = vector.New(0)
	}
	err := RunStageBatch(st, ec, insRows, outs, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err=%v, want *PanicError", err)
	}
	if pe.StageID != 9 || fmt.Sprint(pe.Value) != "poisoned record" {
		t.Fatalf("unexpected panic error: %+v", pe)
	}
	if st.Stats().Errs != 1 {
		t.Fatalf("errs=%d, want 1", st.Stats().Errs)
	}
}

// neverFan exercises the fan decision branch without ever fanning.
type neverFan struct{ grain int }

func (f *neverFan) ShouldFan(n int) bool { return n > f.grain }
func (f *neverFan) Fan(n int, run func(lo, hi int, ec *Exec) error) error {
	panic("must not fan below the grain")
}

// TestRunStageBatchNonFannedZeroAlloc: with a Fanout installed but the
// batch below the grain, the sequential path must stay allocation-free
// — the fan decision is one branch, not a closure construction.
func TestRunStageBatchNonFannedZeroAlloc(t *testing.T) {
	pl := saMiniPlan(t)
	const nRec = 16
	ins := batchInputs(nRec)
	outs := make([]*vector.Vector, nRec)
	rows := make([]*vector.Vector, nRec)
	for r := range outs {
		outs[r] = vector.New(0)
		rows[r] = vector.New(0)
	}
	accs := make([]float32, nRec)
	ec := &Exec{Pool: vector.NewPool(), Fan: &neverFan{grain: 32}}
	runEvent := func() {
		for i, s := range pl.Stages {
			row := rows
			if i == len(pl.Stages)-1 {
				row = outs
			}
			insRows := ec.InsRows(nRec, len(s.Inputs))
			for r := range ins {
				for c, src := range s.Inputs {
					if src == InputID {
						insRows[r][c] = ins[r]
					} else {
						insRows[r][c] = rows[r]
					}
				}
			}
			if err := RunStageBatch(s, ec, insRows, row, accs); err != nil {
				t.Fatal(err)
			}
		}
		for r := range accs {
			accs[r] = 0
		}
	}
	for i := 0; i < 10; i++ {
		runEvent()
	}
	if allocs := testing.AllocsPerRun(100, runEvent); allocs > 0 {
		t.Fatalf("non-fanned batch events allocate %v per run with Fan installed", allocs)
	}
}
