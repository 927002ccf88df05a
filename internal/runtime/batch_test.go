package runtime

import (
	"fmt"
	"sync"
	"testing"

	"pretzel/internal/oven"
	"pretzel/internal/plan"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// examplePlans compiles every pipeline of both example workloads (SA
// text pipelines and AC structured pipelines) into one runtime and
// returns the model names with a few serving inputs per workload.
func examplePlans(t *testing.T, cfg Config, opts oven.Options) (*Runtime, []string, []string) {
	t.Helper()
	sc := workload.SmallScale()
	sc.SACount, sc.ACCount = 6, 4
	sa, err := workload.BuildSA(sc)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := workload.BuildAC(sc)
	if err != nil {
		t.Fatal(err)
	}
	rt, os := newRT(t, cfg)
	var names []string
	for _, p := range sa.Pipelines {
		register(t, rt, os, p, opts)
		names = append(names, p.Name)
	}
	inputs := append([]string(nil), sa.TestInputs[:3]...)
	for _, p := range ac.Pipelines {
		register(t, rt, os, p, opts)
		names = append(names, p.Name)
	}
	return rt, names, append(inputs, ac.TestInputs[:3]...)
}

// TestBatchedMatchesPerRecordAllExamplePlans: batched execution through
// the scheduler and the request-response engine (sharded MatCache
// enabled on both) must be bit-identical to the per-record reference
// oracle across every example plan. Run with -race this is also the
// concurrency check on the batched cache protocol.
func TestBatchedMatchesPerRecordAllExamplePlans(t *testing.T) {
	// The default options compile SA plans into the accumulator-passing
	// head/tail kernels; materialization into the cacheable featurize
	// flavor.
	for _, materialize := range []bool{false, true} {
		t.Run(fmt.Sprintf("materialize=%v", materialize), func(t *testing.T) {
			batchedMatchesReference(t, oven.Options{AOT: true, Materialization: materialize})
		})
	}
}

func batchedMatchesReference(t *testing.T, opts oven.Options) {
	rt, names, inputs := examplePlans(t, Config{Executors: 4, MatCacheBytes: 32 << 20}, opts)
	const repeat = 3 // repeats exercise the cache-hit path of the batch
	for _, name := range names {
		pl, err := rt.LookupPlan(name)
		if err != nil {
			t.Fatal(err)
		}
		ins := make([]*vector.Vector, 0, len(inputs)*repeat)
		outs := make([]*vector.Vector, 0, len(inputs)*repeat)
		wants := make([]*vector.Vector, 0, len(inputs)*repeat)
		for rep := 0; rep < repeat; rep++ {
			for _, doc := range inputs {
				in := vector.New(0)
				in.SetText(doc)
				want := vector.New(0)
				if _, err := plan.RunReference(pl, in, want); err != nil {
					// AC inputs against SA plans (and vice versa) fail on
					// input kind; equivalence only covers valid pairs.
					continue
				}
				got := vector.New(0)
				if err := rt.Predict(name, in, got); err != nil {
					t.Fatalf("plan %s: %v", name, err)
				}
				if !got.Equal(want) {
					t.Fatalf("plan %s: per-record %v != reference %v", name, got, want)
				}
				ins = append(ins, in)
				outs = append(outs, vector.New(0))
				wants = append(wants, want)
			}
		}
		if len(ins) == 0 {
			t.Fatalf("plan %s: no valid inputs", name)
		}
		if err := rt.PredictBatch(name, ins, outs); err != nil {
			t.Fatalf("plan %s: %v", name, err)
		}
		for i := range outs {
			if !outs[i].Equal(wants[i]) {
				t.Fatalf("plan %s record %d: batched %v != reference %v", name, i, outs[i], wants[i])
			}
		}
	}
	if st := rt.MatCacheStats(); opts.Materialization && st.Hits == 0 {
		t.Fatalf("repeated batches never hit the materialization cache: %+v", st)
	}
}

// TestConcurrentBatchJobsSharedMatCache is the -race stress test of the
// sharded materialization cache: many concurrent batched jobs over
// overlapping inputs, all probing and filling the same cache, must
// stay correct and keep the pool accounting balanced.
func TestConcurrentBatchJobsSharedMatCache(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 4, MatCacheBytes: 1 << 20})
	opts := oven.Options{AOT: true, Materialization: true}
	for i := 0; i < 3; i++ {
		register(t, rt, os, saPipeline(t, fmt.Sprintf("sa-%d", i), float32(i)), opts)
	}
	docs := []string{
		"nice product great", "bad refund awful", "nice nice", "product product bad",
		"great wonderful nice", "broken awful product", "refund", "nice",
	}
	// Per-model reference outputs through the request-response engine.
	want := make(map[string][]float32)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("sa-%d", i)
		vals := make([]float32, len(docs))
		in, out := vector.New(0), vector.New(0)
		for d, doc := range docs {
			in.SetText(doc)
			if err := rt.Predict(name, in, out); err != nil {
				t.Fatal(err)
			}
			vals[d] = out.Dense[0]
		}
		want[name] = vals
	}
	iters := 60
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			const batch = 16
			ins := make([]*vector.Vector, batch)
			outs := make([]*vector.Vector, batch)
			for i := range ins {
				ins[i] = vector.New(0)
				ins[i].SetText(docs[(id+i)%len(docs)])
				outs[i] = vector.New(0)
			}
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("sa-%d", (id+i)%3)
				if err := rt.PredictBatch(name, ins, outs); err != nil {
					t.Error(err)
					return
				}
				for r := range outs {
					if got := outs[r].Dense[0]; got != want[name][(id+r)%len(docs)] {
						t.Errorf("goroutine %d iter %d record %d: got %v want %v",
							id, i, r, got, want[name][(id+r)%len(docs)])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	cs := rt.MatCacheStats()
	if cs.Hits == 0 {
		t.Fatalf("overlapping batches never hit the shared cache: %+v", cs)
	}
	ps := rt.BatchPoolStats()
	if ps.Gets != ps.Hits+ps.Allocs || ps.Puts > ps.Gets {
		t.Fatalf("batch pool accounting broken: %+v", ps)
	}
}
