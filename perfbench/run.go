package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"

	"pretzel/internal/frontend"
	"pretzel/internal/lifecycle"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
)

// Fixed run shape.
const (
	minSetups     = 3 // set-ups per untraced run; setup_s is their median
	maxSetups     = 50
	minSetupTime  = 2 * time.Second
	writeInterval = 500 * time.Millisecond // longtail-mixed writer pacing
	writerKeep    = 4                      // live writer variants
	serverExecs   = 8                      // pretzel-server's -executors default
	serverCache   = 4096                   // pretzel-server's -cache default
)

// workDir holds the model cache, scratch repositories and traces,
// relative to the checkout the benchmark runs in.
var workDir = filepath.Join(".bench_build", "work")

type runConfig struct {
	spec
	seed, modelSeed int64
	window          time.Duration
	traced          bool
}

// report is the line printed before the result: everything needed to
// interpret the metrics and to reproduce the run.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	ModelSeed  int64              `json:"model_seed"`
	Traced     bool               `json:"traced"`
	Host       host               `json:"host"`
	Callers    int                `json:"callers"`
	Models     int                `json:"models"`
	CatalogMB  float64            `json:"catalog_accounted_mb"`
	BudgetMB   float64            `json:"ram_budget_mb,omitempty"`
	SetupS     []float64          `json:"setup_s"`
	HeapMB     []float64          `json:"heap_mb"`
	Phases     []*phase           `json:"phases"`
	Samples    int                `json:"latency_samples"`
	ErrorRate  float64            `json:"error_rate"`
	Rounded    uint64             `json:"outputs_within_rounding_slack"`
	WriteMS    []float64          `json:"write_ms,omitempty"`
	WriteP50MS float64            `json:"write_p50_ms,omitempty"`
	WriterLate map[string]float64 `json:"writer_late_ms,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
	Untraced   map[string]metric  `json:"untraced_window,omitempty"`
	TracedE2E  map[string]metric  `json:"traced_window,omitempty"`
	GenerateS  float64            `json:"generate_s"`
	ReferenceS float64            `json:"reference_s"`
}

// stack is the in-process node: frontend over lifecycle.Manager over
// serving.Local over runtime, built as pretzel-server's node mode
// builds it.
type stack struct {
	rt  *runtime.Runtime
	mgr *lifecycle.Manager
	eng serving.Engine
	fe  *frontend.Server
	srv *httptest.Server
}

// setUp builds the node over the repository at dir: the timed part of
// setup_s, from an empty runtime until every model is ready.
func setUp(dir string, budget int64) (*stack, error) {
	rt := runtime.New(store.New(), runtime.Config{Executors: serverExecs})
	opts := oven.DefaultOptions()
	r, err := repo.Open(dir)
	if err != nil {
		rt.Close()
		return nil, err
	}
	mgr, err := lifecycle.New(serving.NewLocal(rt, &opts), r, lifecycle.Config{
		RAMBudget: budget,
		LazyLoad:  budget > 0,
		Compile:   &opts,
	})
	if err != nil {
		rt.Close()
		return nil, err
	}
	return &stack{rt: rt, mgr: mgr, eng: mgr}, nil
}

func (s *stack) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	s.mgr.Close()
}

func run(cfg runConfig) (*report, *result, error) {
	rep := &report{
		Workload: cfg.name, Seed: cfg.seed, ModelSeed: cfg.modelSeed,
		Traced: cfg.traced, Callers: cfg.callers,
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	cat, err := ensureCatalog(workDir, cfg.catalog, cfg.modelSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("generating the %s catalog: %w", cfg.catalog, err)
	}
	rep.GenerateS = time.Since(t0).Seconds()
	rep.Models = len(cat.Names)
	rep.CatalogMB = float64(cat.Accounted) / 1e6

	// Registrations write through to the repository: serve from a copy,
	// so the cached catalog never changes. A run cut short leaves its
	// copy behind; the next run removes it.
	stale, _ := filepath.Glob(filepath.Join(workDir, "run-*"))
	for _, d := range stale {
		os.RemoveAll(d)
	}
	scratch := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	repoDir := filepath.Join(scratch, "repo")
	if err := copyTree(cat.dir, repoDir); err != nil {
		return nil, nil, err
	}
	var budget int64
	if cfg.budgetFrac > 0 {
		budget = int64(cfg.budgetFrac * float64(cat.Accounted))
		rep.BudgetMB = float64(budget) / 1e6
	}
	rep.Host = fingerprint(repoDir)
	if over := time.Duration(rep.Host.TimerOvershootUS) * time.Microsecond; cfg.budgetFrac > 0 && writeInterval < 10*over {
		return nil, nil, fmt.Errorf("timer overshoot %v is too coarse for a %v writer interval", over, writeInterval)
	}

	nVariants := 0
	if cfg.budgetFrac > 0 {
		nVariants = int((cfg.warmup+cfg.window)/writeInterval) + 2
	}
	t0 = time.Now()
	tr, err := buildTraffic(cat, cfg.seed, !cfg.http, cfg.callers, nVariants)
	if err != nil {
		return nil, nil, fmt.Errorf("building traffic: %w", err)
	}
	rep.ReferenceS = time.Since(t0).Seconds()

	rec := newRecorder()
	var loadMS map[string]float64
	if cfg.traced {
		if loadMS, err = loadPath(cat, rec); err != nil {
			return nil, nil, fmt.Errorf("timing the load path: %w", err)
		}
	}

	// Memory baseline: traffic inputs exist, no model byte is loaded.
	baseline := liveHeap()
	// Set up at least minSetups times and until minSetupTime has been
	// spent setting up, so a cheap set-up is timed often enough for a
	// steady median; serve from the last.
	var st *stack
	var spent time.Duration
	for i := 0; ; i++ {
		goruntime.GC()
		t0 := time.Now()
		if st, err = setUp(repoDir, budget); err != nil {
			return nil, nil, fmt.Errorf("setting up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		rep.SetupS = append(rep.SetupS, d.Seconds())
		if budget == 0 {
			rep.HeapMB = append(rep.HeapMB, float64(liveHeap()-baseline)/1e6)
		}
		if cfg.traced || i+1 >= maxSetups || (i+1 >= minSetups && spent >= minSetupTime) {
			break
		}
		st.close()
	}
	defer st.close()

	if cfg.traced {
		st.eng = tracedEngine{Engine: st.mgr, rec: rec}
	}
	var client *httpClient
	if cfg.http {
		st.fe = frontend.New(st.eng, frontend.Config{CacheEntries: serverCache, MaxUploadBytes: 64 << 20})
		var h http.Handler = st.fe
		if cfg.traced {
			h = tracedHandler{rec: rec, next: st.fe}
		}
		st.srv = httptest.NewServer(h)
		client = newHTTPClient(st.srv.URL, cfg.callers, rec)
		defer client.close()
	}

	// Caller c cycles through its own stride of the pool: entries c,
	// c+callers, c+2·callers, ... Between two sends of one request its
	// caller alone sends every other request of its stride, so a stride
	// longer than the result cache is evicted before it comes round
	// again, however the callers are scheduled.
	next := make([]uint64, cfg.callers)
	op := func(c int, k uint64) (int, error) {
		if cfg.http {
			stride := uint64(len(tr.requests) / cfg.callers)
			return 1, client.predict(&tr.requests[k%stride*uint64(cfg.callers)+uint64(c)])
		}
		stride := uint64(len(tr.jobs) / cfg.callers)
		j := &tr.jobs[k%stride*uint64(cfg.callers)+uint64(c)]
		return len(j.inputs), batchJob(st.eng, cat.Names, j, rec)
	}

	// Phases: warm-up, then the measured window — split into an
	// untraced and a traced half when tracing.
	names := []string{"warmup", "measure"}
	lengths := []time.Duration{cfg.warmup, cfg.window}
	if cfg.traced {
		half := cfg.window / 2
		names = []string{"warmup", "untraced", "traced"}
		lengths = []time.Duration{cfg.warmup, half, cfg.window - half}
	}
	var w *writer
	stopWriter := make(chan struct{})
	var writerDone sync.WaitGroup
	if cfg.budgetFrac > 0 {
		w = &writer{http: newHTTPClient(st.srv.URL, 1, rec), zips: tr.variants, keep: writerKeep}
		defer w.http.close()
		for _, n := range names {
			w.phases = append(w.phases, &phase{Name: n})
		}
		writerDone.Add(1)
		go func() {
			defer writerDone.Done()
			w.paced(writeInterval, stopWriter)
		}()
	}

	var win window
	var phases []*phase
	for i, n := range names {
		if w != nil {
			w.setPhase(i)
		}
		last := i == len(names)-1
		var stopSampler chan struct{}
		var sampled sync.WaitGroup
		if last && cfg.traced {
			rec.on.Store(true)
			stopSampler = make(chan struct{})
			sampled.Add(1)
			go func() {
				defer sampled.Done()
				win.queue = sampleQueue(st.rt, stopSampler)
			}()
		}
		if last {
			win.a = snapLayers(st.fe, st.mgr, st.rt)
		}
		ph := closedLoop(n, cfg.callers, lengths[i], next, op)
		if last {
			win.b = snapLayers(st.fe, st.mgr, st.rt)
			win.wall = time.Duration(ph.Seconds * float64(time.Second))
			win.records, win.ops = ph.Records, ph.Succeeded
			if stopSampler != nil {
				close(stopSampler)
				sampled.Wait()
			}
		}
		phases = append(phases, ph)
	}
	close(stopWriter)
	writerDone.Wait()
	if w != nil {
		if err := w.drain(); err != nil {
			return nil, nil, fmt.Errorf("unregistering writer variants: %w", err)
		}
		// Attribute writes to the phase they ended in.
		for i, ph := range phases {
			wp := w.phases[i]
			ph.Sent += wp.Sent
			ph.Succeeded += wp.Succeeded
			ph.Failed += wp.Failed
			ph.Wrong += wp.Wrong
			ph.Writes = wp.Writes
			if i > 0 {
				rep.WriteMS = append(rep.WriteMS, wp.latencies()...)
			}
		}
		rep.WriteP50MS = median(rep.WriteMS)
		rep.WriterLate = map[string]float64{"p50": median(w.late), "max": quantile(w.late, 1), "interval": float64(writeInterval / time.Millisecond)}
		rep.HeapMB = append(rep.HeapMB, float64(liveHeap()-baseline)/1e6)
	}
	rec.on.Store(false)

	rep.Phases = phases
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, ph := range phases[1:] {
		res.Attempted += ph.Sent
		res.Failed += ph.Failed
		if ph.Wrong > 0 {
			res.Correct = false
		}
	}
	rep.ErrorRate = frac(float64(res.Failed), float64(res.Attempted))
	rep.Rounded = rounded.Load()

	heap := median(rep.HeapMB)
	if cfg.traced {
		rep.Untraced = e2e(phases[1], rep, heap)
		rep.TracedE2E = e2e(phases[2], rep, heap)
		win.heap = heap
		win.spans = rec.snapshot()
		win.loadMS = loadMS
		res.Metrics = layerMetrics(win)
		for _, m := range []string{"p50_ms", "p99_ms", "records_per_s", "cpu_us_per_record"} {
			res.Metrics["trace.overhead_"+m] = metric{Value: rep.TracedE2E[m].Value - rep.Untraced[m].Value, Unit: rep.Untraced[m].Unit}
		}
		dir := filepath.Join(workDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		rep.TraceFile = filepath.Join(dir, cfg.name+".spans.csv")
		if err := rec.write(rep.TraceFile); err != nil {
			return nil, nil, err
		}
	} else {
		res.Metrics = e2e(phases[1], rep, heap)
	}
	rep.Samples = len(phases[len(phases)-1].lat)
	return rep, res, nil
}

// e2e computes the end-to-end metrics of one measured phase.
func e2e(ph *phase, rep *report, heap float64) map[string]metric {
	lat := ph.latencies()
	return map[string]metric{
		"setup_s":           {median(rep.SetupS), "s"},
		"p50_ms":            {quantile(lat, 0.5), "ms"},
		"p99_ms":            {quantile(lat, 0.99), "ms"},
		"records_per_s":     {float64(ph.Records) / ph.Seconds, "rec/s"},
		"cpu_us_per_record": {float64(ph.cpu/time.Microsecond) / float64(max(ph.Records, 1)), "us"},
		"success_rate":      {frac(float64(ph.Succeeded), float64(ph.Sent)), "ratio"},
		"heap_mb":           {heap, "MB"},
	}
}

// sampleQueue samples the scheduler's queued stage events every 5ms
// until stop is closed.
func sampleQueue(rt *runtime.Runtime, stop <-chan struct{}) []float64 {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	var out []float64
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
			s := rt.SchedStats()
			out = append(out, float64(s.QueueHigh+s.QueueLow))
		}
	}
}

// loadPath times each public call on the load path — repo read,
// pipeline import, oven compile, runtime register — for every catalog
// model on a scratch runtime, and returns the mean per model in ms.
func loadPath(c *catalog, rec *recorder) (map[string]float64, error) {
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	defer rt.Close()
	r, err := repo.Open(c.dir)
	if err != nil {
		return nil, err
	}
	opts := oven.DefaultOptions()
	opts.Plans = rt.PlanStore()
	sum := map[string]float64{}
	rec.on.Store(true)
	defer rec.on.Store(false)
	for i, name := range c.Names {
		parent := rec.newID()
		req := uint64(i + 1)
		begin := rec.now()
		step := func(sn string, fn func() error) error {
			start := rec.now()
			err := fn()
			end := rec.now()
			rec.add(span{name: sn, id: rec.newID(), parent: parent, req: req, start: start, end: end})
			sum[sn] += float64(end-start) / 1e6
			return err
		}
		var raw []byte
		var p *pipeline.Pipeline
		var pl *plan.Plan
		if err := step(spanRepoRead, func() (err error) { raw, err = r.Read(name, 1); return }); err != nil {
			return nil, err
		}
		if err := step(spanImport, func() (err error) { p, err = pipeline.ImportBytes(raw); return }); err != nil {
			return nil, err
		}
		if err := step(spanCompile, func() (err error) { pl, err = oven.Compile(p, rt.ObjectStore(), opts); return }); err != nil {
			return nil, err
		}
		if err := step(spanRegisterRT, func() error { _, err := rt.RegisterVersion(pl, name, 1); return err }); err != nil {
			return nil, err
		}
		rec.add(span{name: spanSetupModel, id: parent, req: req, start: begin, end: rec.now()})
	}
	for k := range sum {
		sum[k] /= float64(len(c.Names))
	}
	return sum, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
