package main

import (
	"time"

	"pretzel/internal/frontend"
	"pretzel/internal/lifecycle"
	"pretzel/internal/plan"
	"pretzel/internal/runtime"
	"pretzel/internal/sched"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// stageKinds are the plan kernel kinds reported per record.
var stageKinds = []string{"sa-featurize", "sa-head", "sa-tail", "linear-score", "concat", "generic"}

// layerSnap is a snapshot of every layer's public counters. Two
// snapshots bracket a measured window; the per-layer metrics are their
// deltas.
type layerSnap struct {
	proc   procCounters
	cache  frontend.CacheStats
	life   serving.LifecycleStats
	sched  sched.Stats
	adm    runtime.AdmissionStats
	pool   vector.PoolStats
	object store.Stats
	plans  plan.StageStoreStats
	stages map[*plan.Stage]plan.StageStats
	loads  map[string]runtime.ModelLoad
	mem    int // runtime.MemBytes: the accounted footprint
}

func snapLayers(fe *frontend.Server, mgr *lifecycle.Manager, rt *runtime.Runtime) layerSnap {
	s := layerSnap{
		proc:   readProc(),
		life:   mgr.LStats(),
		sched:  rt.SchedStats(),
		adm:    rt.AdmissionStats(),
		pool:   rt.PoolStats(),
		object: rt.ObjectStoreStats(),
		plans:  rt.PlanStoreStats(),
		stages: map[*plan.Stage]plan.StageStats{},
		loads:  rt.ModelLoads(),
		mem:    rt.MemBytes(),
	}
	if fe != nil {
		s.cache = fe.CacheStats()
	}
	s.pool.Add(rt.BatchPoolStats())
	for _, name := range rt.Names() {
		p, err := rt.LookupPlan(name)
		if err != nil {
			continue // evicted since Names
		}
		for _, st := range p.Stages {
			s.stages[st] = st.Stats()
		}
	}
	return s
}

// window is what the load generator measured between two layer snapshots.
type window struct {
	a, b    layerSnap
	wall    time.Duration
	records uint64 // records completed
	ops     uint64 // predict requests or batch jobs completed
	heap    float64
	spans   []span
	queue   []float64 // sampled scheduler queue depths
	loadMS  map[string]float64
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeLatency merges the per-model runtime latency histograms over
// the window: the count-weighted mean of each model's percentiles (the
// histograms expose percentiles, not buckets), and the exact mean.
func runtimeLatency(a, b map[string]runtime.ModelLoad) (p50, p99, mean float64) {
	var n, s50, s99, sum float64
	for name, lb := range b {
		la := a[name]
		if lb.Latency.Count < la.Latency.Count {
			la = runtime.ModelLoad{} // evicted and reloaded: count from zero
		}
		d := float64(lb.Latency.Count - la.Latency.Count)
		if d == 0 {
			continue
		}
		n += d
		s50 += d * float64(lb.Latency.P50Nanos)
		s99 += d * float64(lb.Latency.P99Nanos)
		sum += float64(lb.Latency.MeanNanos)*float64(lb.Latency.Count) - float64(la.Latency.MeanNanos)*float64(la.Latency.Count)
	}
	return frac(s50, n), frac(s99, n), frac(sum, n)
}

// layerMetrics derives every per-layer metric from a measured window.
func layerMetrics(w window) map[string]metric {
	a, b := w.a, w.b
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	records := float64(w.records)

	// frontend
	serve := summarize(w.spans, spanServePredict)
	put("frontend.serve_p50_us", serve.p50/1e3, "us")
	put("frontend.serve_p99_us", serve.p99/1e3, "us")
	put("frontend.self_us", selfMean(w.spans, spanServePredict)/1e3, "us")
	hits := float64(b.cache.Hits - a.cache.Hits)
	put("frontend.cache_hit_frac", frac(hits, hits+float64(b.cache.Misses-a.cache.Misses)), "ratio")
	put("client.transport_us", selfMean(w.spans, spanClientPredict)/1e3, "us")

	// lifecycle
	pred, batch := summarize(w.spans, spanPredict), summarize(w.spans, spanBatch)
	put("lifecycle.predict_p50_us", pred.p50/1e3, "us")
	put("lifecycle.predict_p99_us", pred.p99/1e3, "us")
	put("lifecycle.batch_p50_ms", batch.p50/1e6, "ms")
	put("lifecycle.write_ms", summarize(w.spans, spanRegister).p50/1e6, "ms")
	rtP50, rtP99, rtMean := runtimeLatency(a.loads, b.loads)
	engine := pred
	if batch.n > 0 {
		engine = batch
	}
	put("lifecycle.self_us", (engine.mean-rtMean)/1e3, "us")
	cold := float64(b.life.ColdLoads - a.life.ColdLoads)
	put("lifecycle.cold_loads", cold, "count")
	put("lifecycle.evictions", float64(b.life.Evictions-a.life.Evictions), "count")
	put("lifecycle.cold_frac", frac(cold, float64(w.ops)), "ratio")
	coldP99 := 0.0
	if cold > 0 {
		coldP99 = float64(b.life.ColdStart.P99Nanos) / 1e6
	}
	put("lifecycle.cold_start_p99_ms", coldP99, "ms")
	put("lifecycle.resident_mb", float64(b.life.ResidentBytes)/1e6, "MB")

	// runtime
	put("runtime.predict_p50_us", rtP50/1e3, "us")
	put("runtime.predict_p99_us", rtP99/1e3, "us")
	accounted := float64(b.mem) / 1e6
	put("runtime.accounted_mb", accounted, "MB")
	put("runtime.accounted_over_heap", frac(accounted, w.heap), "ratio")
	put("runtime.shed", float64(b.adm.Shed-a.adm.Shed), "count")

	// sched
	var events, busy float64
	for i, u := range b.sched.ExecutorUtil {
		if i < len(a.sched.ExecutorUtil) {
			events += float64(u.Events - a.sched.ExecutorUtil[i].Events)
			busy += float64(u.BusyNS - a.sched.ExecutorUtil[i].BusyNS)
		}
	}
	par := float64(b.sched.ParallelStages - a.sched.ParallelStages)
	put("sched.events", events, "count")
	put("sched.parallel_stages", par, "count")
	put("sched.subtasks_per_stage", frac(float64(b.sched.ParallelSubtasks-a.sched.ParallelSubtasks), par), "count")
	put("sched.busy_frac", frac(busy, float64(len(b.sched.ExecutorUtil))*float64(w.wall)), "ratio")
	put("sched.queue_depth_p99", quantile(w.queue, 0.99), "count")

	// plan: per-kind stage time per record over the unique stages.
	var stageNS float64
	perKind := map[string][2]float64{}
	for st, sb := range b.stages {
		sa := a.stages[st]
		kind := "generic"
		if st.Kern != nil {
			kind = st.Kern.Kind()
		}
		k := perKind[kind]
		k[0] += float64(sb.TotalNanos - sa.TotalNanos)
		k[1] += float64(sb.Records - sa.Records)
		perKind[kind] = k
		stageNS += float64(sb.TotalNanos - sa.TotalNanos)
	}
	for _, kind := range stageKinds {
		k := perKind[kind]
		put("plan."+kind+".ns_per_record", frac(k[0], k[1]), "ns")
	}
	put("plan.kernel_frac", frac(stageNS, engine.mean*float64(engine.n)), "ratio")
	put("plan.stage_refs", float64(b.plans.Refs), "count")

	// store and vector
	put("store.object_mb", float64(b.object.Bytes)/1e6, "MB")
	put("store.saved_mb", float64(b.object.BytesSaved)/1e6, "MB")
	put("vector.pool_hit_frac", frac(float64(b.pool.Hits-a.pool.Hits), float64(b.pool.Gets-a.pool.Gets)), "ratio")

	// load path, per model
	for _, name := range []string{spanRepoRead, spanImport, spanCompile, spanRegisterRT} {
		put(name+"_ms", w.loadMS[name], "ms")
	}

	// process
	put("process.alloc_bytes_per_record", frac(float64(b.proc.allocBytes-a.proc.allocBytes), records), "B")
	put("process.gc_per_1k_records", frac(1000*float64(b.proc.gcCycles-a.proc.gcCycles), records), "count")
	put("trace.spans", float64(len(w.spans)), "count")
	return out
}
