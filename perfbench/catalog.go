package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pretzel/internal/dataset"
	"pretzel/internal/lifecycle"
	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// catalog is one generated model repository on disk: the 250 SA or
// 250 AC pipelines of the paper's Table 1 at workload.BenchScale,
// published as <name>/1/model.zip. It is generated once per model seed
// and reused by every later run.
type catalog struct {
	Kind      string   `json:"kind"`
	ModelSeed int64    `json:"model_seed"`
	Names     []string `json:"names"`
	// Accounted is runtime.MemBytes with every model loaded: the base
	// the longtail-mixed RAM budget is a fraction of.
	Accounted int64 `json:"accounted_bytes"`

	dir string
}

// scale is the model scale every catalog is generated at.
func scale(modelSeed int64) workload.Scale {
	sc := workload.BenchScale()
	sc.Seed = modelSeed
	return sc
}

// ensureCatalog returns the cached repository of kind ("sa" or "ac")
// for modelSeed under cacheDir, generating and publishing it first if
// it is missing. Generation happens before any timed phase.
func ensureCatalog(cacheDir, kind string, modelSeed int64) (*catalog, error) {
	dir := filepath.Join(cacheDir, fmt.Sprintf("%s-bench-m%d", kind, modelSeed))
	metaPath := dir + ".json"
	if raw, err := os.ReadFile(metaPath); err == nil {
		c := &catalog{dir: dir}
		if err := json.Unmarshal(raw, c); err == nil && len(c.Names) > 0 {
			return c, nil
		}
	}
	// A missing or unreadable meta file means a previous generation was
	// cut short: start over in a temporary directory and publish it
	// with one rename.
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	for _, d := range []string{dir, tmp} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	pipes, err := generate(kind, modelSeed)
	if err != nil {
		return nil, err
	}
	r, err := repo.Open(tmp)
	if err != nil {
		return nil, err
	}
	c := &catalog{Kind: kind, ModelSeed: modelSeed}
	for _, p := range pipes {
		zip, err := p.ExportBytes()
		if err != nil {
			return nil, fmt.Errorf("exporting %s: %w", p.Name, err)
		}
		if _, err := r.Put(p.Name, 1, zip); err != nil {
			return nil, err
		}
		c.Names = append(c.Names, p.Name)
	}
	sort.Strings(c.Names)
	if c.Accounted, err = accountedBytes(r); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(metaPath+".tmp", raw, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(metaPath+".tmp", metaPath); err != nil {
		return nil, err
	}
	c.dir = dir
	return c, nil
}

func generate(kind string, modelSeed int64) ([]*pipeline.Pipeline, error) {
	switch kind {
	case "sa":
		set, err := workload.BuildSA(scale(modelSeed))
		if err != nil {
			return nil, err
		}
		return set.Pipelines, nil
	case "ac":
		set, err := workload.BuildAC(scale(modelSeed))
		if err != nil {
			return nil, err
		}
		return set.Pipelines, nil
	}
	return nil, fmt.Errorf("unknown catalog kind %q", kind)
}

// accountedBytes loads the whole repository with no budget and returns
// the runtime's accounted footprint.
func accountedBytes(r *repo.Repo) (int64, error) {
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	m, err := lifecycle.New(serving.NewLocal(rt, nil), r, lifecycle.Config{})
	if err != nil {
		rt.Close()
		return 0, err
	}
	n := int64(rt.MemBytes())
	return n, m.Close()
}

// request is one prediction of the request pool with its expected
// output.
type request struct {
	model int
	input string
	body  []byte // POST /predict JSON body
	want  []float32
	slack float32 // rounding allowance of want, see roundingSlack
}

// job is one batch of the batch pool: records for one model.
type job struct {
	model  int
	inputs []string
	want   [][]float32
	slack  []float32
}

// traffic is everything a run sends, generated from the traffic seed
// before any model is loaded into the serving stack.
type traffic struct {
	requests []request
	jobs     []job
	// variants are fresh final-layer variants of catalog models for the
	// writer, already exported to zip bytes.
	variants [][]byte
}

// Sizes of the traffic pools, per caller. Each caller's share of the
// request pool is larger than the front end's 4096-entry LRU result
// cache, so cycling through it never hits; it is not much larger, so a
// window covers several cycles and sees the same mix of models on
// every seed.
const (
	requestPool = 4608
	jobPool     = 256
	jobRecords  = 256
	zipfAlpha   = 2
)

// buildTraffic generates the seeded request or job pool for callers
// callers of the catalog, plus nVariants writer variants, and computes
// every expected output with pipeline.Run on the uncompiled imported
// models.
func buildTraffic(c *catalog, seed int64, batch bool, callers, nVariants int) (*traffic, error) {
	r, err := repo.Open(c.dir)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	gen := inputGen(c.Kind, c.ModelSeed, rng)

	tr := &traffic{}
	used := map[int]bool{}
	seen := map[string]bool{}
	fresh := func() string {
		for {
			if s := gen(); !seen[s] {
				seen[s] = true
				return s
			}
		}
	}
	if batch {
		tr.jobs = make([]job, callers*jobPool)
		for i, m := range zipfDraws(len(c.Names), len(tr.jobs), c.ModelSeed, rng) {
			j := &tr.jobs[i]
			j.model = m
			used[j.model] = true
			j.inputs = make([]string, jobRecords)
			for k := range j.inputs {
				j.inputs[k] = fresh()
			}
			j.want = make([][]float32, jobRecords)
			j.slack = make([]float32, jobRecords)
		}
	} else {
		tr.requests = make([]request, callers*requestPool)
		for i, m := range zipfDraws(len(c.Names), len(tr.requests), c.ModelSeed, rng) {
			q := &tr.requests[i]
			q.model = m
			used[q.model] = true
			q.input = fresh()
			q.body, err = json.Marshal(map[string]string{"model": c.Names[q.model], "input": q.input})
			if err != nil {
				return nil, err
			}
		}
	}
	// Which models the writer fine-tunes is, like popularity, fixed by
	// the model seed; the perturbations come from the traffic seed.
	perm := rand.New(rand.NewSource(c.ModelSeed + 1)).Perm(len(c.Names))
	bases := make([]int, nVariants)
	for i := range bases {
		bases[i] = perm[i%len(perm)]
		used[bases[i]] = true
	}

	// Reference outputs, two models at a time.
	models := make([]int, 0, len(used))
	for m := range used {
		models = append(models, m)
	}
	sort.Ints(models)
	pipes := make([]*pipeline.Pipeline, len(c.Names))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		next = make(chan int)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range next {
				if err := tr.reference(c, r, m, pipes); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, m := range models {
		next <- m
	}
	close(next)
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	for i, b := range bases {
		zip, err := variant(pipes[b], fmt.Sprintf("var-%04d", i), rng).ExportBytes()
		if err != nil {
			return nil, err
		}
		tr.variants = append(tr.variants, zip)
	}
	return tr, nil
}

// zipfDraws returns n model choices with Zipf(α=2) popularity (§5.4),
// in seeded random order. Which model has which popularity rank is a
// property of the catalog and comes from the model seed. The choices
// are a systematic sample of the distribution: every model is chosen
// within one of its expected count, so traffic seeds differ in request
// order and inputs, not in how much of the catalog they touch.
func zipfDraws(models, n int, modelSeed int64, rng *rand.Rand) []int {
	perm := rand.New(rand.NewSource(modelSeed)).Perm(models)
	var h float64
	for k := 1; k <= models; k++ {
		h += 1 / math.Pow(float64(k), zipfAlpha)
	}
	out := make([]int, 0, n)
	cum, next := 0.0, rng.Float64()
	for k := 1; k <= models; k++ {
		cum += float64(n) / math.Pow(float64(k), zipfAlpha) / h
		for ; next < cum && len(out) < n; next++ {
			out = append(out, perm[k-1])
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// reference imports model m — the uncompiled pipeline every served
// output is checked against — and fills in the expected output of
// every request or job that targets it.
func (tr *traffic) reference(c *catalog, r *repo.Repo, m int, pipes []*pipeline.Pipeline) error {
	raw, err := r.Read(c.Names[m], 1)
	if err != nil {
		return err
	}
	p, err := pipeline.ImportBytes(raw)
	if err != nil {
		return err
	}
	pipes[m] = p
	// A pipeline ending in a linear model gets a rounding allowance,
	// computed from the features its other nodes produce.
	lin, _ := p.Nodes[len(p.Nodes)-1].Op.(*ops.LinearPredictor)
	prefix := *p
	prefix.Nodes = p.Nodes[:len(p.Nodes)-1]
	in, out, feat := vector.New(0), vector.New(0), vector.New(0)
	run := func(s string) ([]float32, float32, error) {
		in.SetText(s)
		if err := p.Run(in, out, nil); err != nil {
			return nil, 0, err
		}
		want := append([]float32(nil), out.Dense...)
		if lin == nil || len(want) != 1 {
			return want, 0, nil
		}
		if err := prefix.Run(in, feat, nil); err != nil {
			return nil, 0, err
		}
		return want, roundingSlack(lin.Model, feat, want[0]), nil
	}
	for i := range tr.requests {
		if q := &tr.requests[i]; q.model == m {
			if q.want, q.slack, err = run(q.input); err != nil {
				return err
			}
		}
	}
	for i := range tr.jobs {
		if j := &tr.jobs[i]; j.model == m {
			for k, s := range j.inputs {
				if j.want[k], j.slack[k], err = run(s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// roundingSlack bounds how far a correct output of model over features
// x may lie from the reference output want because its margin was
// summed in another order. A compiled plan may add the terms w_i·x_i
// of the margin in any order (the fused SA kernels add one weight per
// n-gram occurrence as the text streams by; the reference adds one
// product per distinct feature), and a float32 sum of n terms whose
// magnitudes add up to L1 then differs from the exact sum by about
// sqrt(n)·u·L1, u = 2⁻²⁴ (Higham and Mary's probabilistic rounding
// error bound). The allowance is the change in the output when the
// margin moves by twice that. n counts a feature of value v as
// max(1, |v|) terms: an n-gram seen v times is v additions.
func roundingSlack(model *ml.LinearModel, x *vector.Vector, want float32) float32 {
	var margin float32
	var l1, n float64
	term := func(j int, v float32) {
		if j >= 0 && j < len(model.Weights) {
			l1 += math.Abs(float64(model.Weights[j]) * float64(v))
			n += math.Max(1, math.Abs(float64(v)))
		}
	}
	switch x.Kind {
	case vector.KindSparse:
		for k, ix := range x.Idx {
			term(int(ix), x.Val[k])
		}
		margin = model.MarginSparse(x.Idx, x.Val)
	case vector.KindDense:
		for k, v := range x.Dense {
			term(k, v)
		}
		margin = model.Margin(x.Dense)
	default:
		return 0
	}
	l1 += math.Abs(float64(model.Bias))
	d := float32(2 * math.Sqrt(n+1) * 0x1p-24 * l1)
	return max(abs32(model.Link(margin+d)-want), abs32(model.Link(margin-d)-want))
}

func abs32(x float32) float32 { return float32(math.Abs(float64(x))) }

// inputGen returns a generator of seeded inputs drawn from the
// distribution the catalog's models were trained on: reviews assembled
// from the training corpus's token stream (SA), or training-like
// records with fresh noise (AC).
func inputGen(kind string, modelSeed int64, rng *rand.Rand) func() string {
	sc := scale(modelSeed)
	if kind == "sa" {
		var toks []string
		for _, d := range dataset.NewReviewCorpus(sc.CorpusVocab, sc.Seed).Generate(sc.CorpusDocs, sc.ReviewLength) {
			toks = append(toks, strings.Fields(strings.TrimSuffix(d.Text, "."))...)
		}
		return func() string {
			n := sc.ReviewLength/2 + rng.Intn(sc.ReviewLength)
			words := make([]string, n)
			for i := range words {
				words[i] = toks[rng.Intn(len(toks))]
			}
			return strings.Join(words, " ") + "."
		}
	}
	base := dataset.NewRecordGen(sc.ACDim, sc.Seed+1).Generate(sc.ACTrainRows + 100)
	return func() string {
		b := base[rng.Intn(len(base))].Features
		f := make([]float32, len(b))
		for i, v := range b {
			f[i] = v + float32(rng.NormFloat64())*0.25
		}
		return workload.FormatRecord(f)
	}
}

// variant copies p under a new name with its final layer perturbed the
// way workload.BuildDensity fine-tunes variants: a few weights of a
// linear model, or the leaf values of a forest.
func variant(p *pipeline.Pipeline, name string, rng *rand.Rand) *pipeline.Pipeline {
	v := *p
	v.Name = name
	v.Nodes = append([]pipeline.Node(nil), p.Nodes...)
	last := &v.Nodes[len(v.Nodes)-1]
	switch op := last.Op.(type) {
	case *ops.LinearPredictor:
		w := append([]float32(nil), op.Model.Weights...)
		for k := 0; k < len(w)/20+1; k++ {
			w[rng.Intn(len(w))] += float32(rng.NormFloat64()) * 0.01
		}
		last.Op = &ops.LinearPredictor{Model: &ml.LinearModel{
			Kind:    op.Model.Kind,
			Weights: w,
			Bias:    op.Model.Bias + float32(rng.NormFloat64())*0.01,
		}}
	case *ops.ForestPredictor:
		f := &ml.Forest{}
		for _, t := range op.Model.Trees {
			nt := &ml.Tree{Nodes: append([]ml.TreeNode(nil), t.Nodes...), Leaves: t.Leaves}
			for i := range nt.Nodes {
				if nt.Nodes[i].Feature < 0 {
					nt.Nodes[i].Value *= 1 + float32(rng.NormFloat64())*0.01
				}
			}
			f.Trees = append(f.Trees, nt)
		}
		last.Op = &ops.ForestPredictor{Model: f}
	}
	return &v
}

// rounded counts outputs that matched only thanks to their rounding
// slack.
var rounded atomic.Uint64

// near reports whether got matches want within the tolerance the oven
// equivalence tests use, widened by slack (see roundingSlack).
func near(got, want []float32, slack float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		d := math.Abs(float64(got[i] - want[i]))
		tol := 1e-4 * math.Max(1, math.Abs(float64(want[i])))
		if d > tol+float64(slack) || math.IsNaN(float64(got[i])) {
			return false
		}
		if d > tol {
			rounded.Add(1)
		}
	}
	return true
}
