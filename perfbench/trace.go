package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/serving"
)

// Span names. Each is recorded by the benchmark around a call into one
// layer's public API; nothing inside the program is instrumented.
const (
	spanClientPredict = "client.predict" // generator: one POST /predict
	spanClientJob     = "client.job"     // generator: one PredictBatch job
	spanClientWrite   = "client.write"   // writer: one POST /models
	spanServePredict  = "frontend.ServeHTTP:predict"
	spanServeModels   = "frontend.ServeHTTP:models"
	spanPredict       = "lifecycle.Predict"
	spanBatch         = "lifecycle.PredictBatch"
	spanRegister      = "lifecycle.Register"
	spanUnregister    = "lifecycle.Unregister"
	spanSetupModel    = "setup.model"
	spanRepoRead      = "repo.read"
	spanImport        = "pipeline.import"
	spanCompile       = "oven.compile"
	spanRegisterRT    = "runtime.register"
)

// hdrSpan carries the generator's span id across the HTTP hop. A
// generator span is the root of its request, so its id is also the
// request id.
const hdrSpan = "X-Bench-Span"

// span is one timed call: name, start, end, the span that caused it
// and the request it belongs to. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	name       string
	id, parent uint64
	req        uint64
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory while on; they are written out once
// the run ends.
type recorder struct {
	on    atomic.Bool
	ids   atomic.Uint64
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// pending links a management request to the engine call it causes
	// (Register and Unregister take no context), keyed by model name.
	pending sync.Map
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the recorder clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write saves every span as one CSV line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,req,start_ns,end_ns")
	for _, s := range r.snapshot() {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.id, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef is the span a call runs under, carried on the context.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// tracedHandler records a span around the front end's ServeHTTP,
// parented on the generator span named in the request headers.
type tracedHandler struct {
	rec  *recorder
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
	ref := spanRef{id: h.rec.newID(), req: parent}
	name := spanServePredict
	if strings.HasPrefix(r.URL.Path, "/models") {
		name = spanServeModels
		model := r.URL.Query().Get("name")
		if model == "" {
			model = strings.TrimPrefix(r.URL.Path, "/models/")
		}
		h.rec.pending.Store(model, ref)
		defer h.rec.pending.Delete(model)
	}
	start := h.rec.now()
	h.next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), ref)))
	h.rec.add(span{name: name, id: ref.id, parent: parent, req: parent, start: start, end: h.rec.now()})
}

// tracedEngine records a span around each lifecycle.Manager call the
// front end or the batch caller makes.
type tracedEngine struct {
	serving.Engine
	rec *recorder
}

// around times fn as a child of parent.
func (e tracedEngine) around(name string, parent spanRef, fn func()) {
	if !e.rec.on.Load() {
		fn()
		return
	}
	start := e.rec.now()
	fn()
	e.rec.add(span{name: name, id: e.rec.newID(), parent: parent.id, req: parent.req, start: start, end: e.rec.now()})
}

func (e tracedEngine) pendingRef(model string) spanRef {
	ref, _ := e.rec.pending.Load(model)
	r, _ := ref.(spanRef)
	return r
}

func (e tracedEngine) Predict(ctx context.Context, model, input string, opts serving.PredictOptions) (out []float32, err error) {
	e.around(spanPredict, spanFrom(ctx), func() { out, err = e.Engine.Predict(ctx, model, input, opts) })
	return out, err
}

func (e tracedEngine) PredictBatch(ctx context.Context, model string, inputs []string, opts serving.PredictOptions) (out [][]float32, err error) {
	e.around(spanBatch, spanFrom(ctx), func() { out, err = e.Engine.PredictBatch(ctx, model, inputs, opts) })
	return out, err
}

func (e tracedEngine) Register(zip []byte, opts serving.RegisterOptions) (res serving.RegisterResult, err error) {
	e.around(spanRegister, e.pendingRef(opts.Name), func() { res, err = e.Engine.Register(zip, opts) })
	return res, err
}

func (e tracedEngine) Unregister(ref string) (err error) {
	e.around(spanUnregister, e.pendingRef(ref), func() { err = e.Engine.Unregister(ref) })
	return err
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	n              int
	mean, p50, p99 float64 // nanoseconds
}

func summarize(spans []span, name string) spanStats {
	var xs []float64
	for _, s := range spans {
		if s.name == name {
			xs = append(xs, float64(s.dur()))
		}
	}
	st := spanStats{n: len(xs)}
	if st.n == 0 {
		return st
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	st.mean = sum / float64(st.n)
	st.p50 = quantile(xs, 0.5)
	st.p99 = quantile(xs, 0.99)
	return st
}

// selfMean is the mean self time of the spans named name: each span's
// duration minus the durations of its direct children.
func selfMean(spans []span, name string) float64 {
	child := map[uint64]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.dur()
		}
	}
	var sum float64
	n := 0
	for _, s := range spans {
		if s.name == name {
			sum += float64(s.dur() - child[s.id])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
