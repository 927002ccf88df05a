package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/frontend"
	"pretzel/internal/serving"
)

// errWrong marks an output that did not match its reference.
var errWrong = errors.New("output does not match the uncompiled pipeline")

// phase counts what the generator did in one phase of a run.
type phase struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Sent      uint64  `json:"sent"`
	Succeeded uint64  `json:"succeeded"`
	Failed    uint64  `json:"failed"`
	Wrong     uint64  `json:"wrong"`
	Records   uint64  `json:"records"`
	Writes    uint64  `json:"writes"`

	lat []time.Duration // latency of each successful operation
	cpu time.Duration   // process CPU time spent during the phase
}

// maxLogged bounds how many failed operations a run describes on
// standard error.
const maxLogged = 10

var logged atomic.Int32

// tally merges one operation's outcome into the phase, describing the
// first few failures on standard error.
func (p *phase) tally(lat time.Duration, records int, err error) {
	if err != nil && logged.Add(1) <= maxLogged {
		fmt.Fprintf(os.Stderr, "perfbench: %s phase: failed: %v\n", p.Name, err)
	}
	p.Sent++
	switch {
	case err == nil:
		p.Succeeded++
		p.Records += uint64(records)
		p.lat = append(p.lat, lat)
	case errors.Is(err, errWrong):
		p.Failed++
		p.Wrong++
	default:
		p.Failed++
	}
}

func (p *phase) merge(o *phase) {
	p.Sent += o.Sent
	p.Succeeded += o.Succeeded
	p.Failed += o.Failed
	p.Wrong += o.Wrong
	p.Records += o.Records
	p.lat = append(p.lat, o.lat...)
}

// latencies returns the operation latencies in ms.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.lat))
	for i, d := range p.lat {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// closedLoop runs callers goroutines for d, each sending its next
// operation only after the previous one returned. Caller c counts its
// own operations in next[c], which carries over from phase to phase;
// op maps (c, count) to the operation. The phase's wall time runs until
// the last in-flight operation completes.
func closedLoop(name string, callers int, d time.Duration, next []uint64, op func(c int, k uint64) (int, error)) *phase {
	ph := &phase{Name: name}
	per := make([]phase, callers)
	cpu0 := cpuTime()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int, p *phase) {
			defer wg.Done()
			for time.Now().Before(end) {
				k := next[c]
				next[c]++
				t0 := time.Now()
				n, err := op(c, k)
				p.tally(time.Since(t0), n, err)
			}
		}(c, &per[c])
	}
	wg.Wait()
	ph.Seconds = time.Since(start).Seconds()
	ph.cpu = cpuTime() - cpu0
	for c := range per {
		ph.merge(&per[c])
	}
	return ph
}

// httpClient sends predictions and model writes to the front end over
// loopback HTTP with keep-alive connections.
type httpClient struct {
	url string
	hc  *http.Client
	rec *recorder
}

func newHTTPClient(url string, conns int, rec *recorder) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &httpClient{url: url, hc: &http.Client{Transport: tr}, rec: rec}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the response body, failing on any
// status other than want. When tracing it records the generator span.
func (c *httpClient) do(method, path string, body []byte, want int, spanName string) ([]byte, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var id uint64
	var start int64
	if c.rec != nil && c.rec.on.Load() {
		id = c.rec.newID()
		req.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
		start = c.rec.now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if id != 0 {
		c.rec.add(span{name: spanName, id: id, req: id, start: start, end: c.rec.now()})
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// predict sends one request of the pool and checks the prediction.
func (c *httpClient) predict(q *request) error {
	raw, err := c.do(http.MethodPost, "/predict", q.body, http.StatusOK, spanClientPredict)
	if err != nil {
		return err
	}
	var r frontend.Response
	if err := json.Unmarshal(raw, &r); err != nil {
		return err
	}
	if r.Cached || !near(r.Prediction, q.want, q.slack) {
		return fmt.Errorf("%w: %s: cached %v, got %v, want %v ± slack %g", errWrong, q.body, r.Cached, r.Prediction, q.want, q.slack)
	}
	return nil
}

// batchJob runs one pool job through the engine and checks every
// record.
func batchJob(eng serving.Engine, names []string, j *job, rec *recorder) error {
	ctx := context.Background()
	var id uint64
	var start int64
	if rec != nil && rec.on.Load() {
		id = rec.newID()
		ctx = withSpan(ctx, spanRef{id: id, req: id})
		start = rec.now()
	}
	out, err := eng.PredictBatch(ctx, names[j.model], j.inputs, serving.PredictOptions{})
	if id != 0 {
		rec.add(span{name: spanClientJob, id: id, req: id, start: start, end: rec.now()})
	}
	if err != nil {
		return err
	}
	if len(out) != len(j.want) {
		return fmt.Errorf("%w: %s: %d outputs for %d records", errWrong, names[j.model], len(out), len(j.want))
	}
	for i := range out {
		if !near(out[i], j.want[i], j.slack[i]) {
			return fmt.Errorf("%w: %s record %q: got %v, want %v ± slack %g", errWrong, names[j.model], j.inputs[i], out[i], j.want[i], j.slack[i])
		}
	}
	return nil
}

// writer registers fresh final-layer variants with POST /models and
// unregisters the oldest, so the catalog size stays constant.
type writer struct {
	http *httpClient
	zips [][]byte
	keep int // live variants kept before the oldest is unregistered

	// Only the paced goroutine touches the fields below until it has
	// stopped; idx is set by the load generator as phases change.
	phases []*phase  // the run's phases; a write is filed under idx at its end
	late   []float64 // how late each paced write started, ms
	idx    atomic.Int32
	live   []string
	used   int
}

func (w *writer) setPhase(i int) { w.idx.Store(int32(i)) }

// write registers the next variant, then unregisters the oldest live
// one if more than keep are live. It reports the registration latency.
func (w *writer) write() (time.Duration, error) {
	if w.used == len(w.zips) {
		return 0, fmt.Errorf("writer ran out of variants after %d", w.used)
	}
	name := fmt.Sprintf("var-%04d", w.used)
	zip := w.zips[w.used]
	w.used++
	t0 := time.Now()
	raw, err := w.http.do(http.MethodPost, "/models?name="+name, zip, http.StatusCreated, spanClientWrite)
	if err != nil {
		return 0, err
	}
	lat := time.Since(t0)
	var res frontend.RegisterResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		return 0, err
	}
	if res.Name != name || res.Version < 1 {
		return 0, fmt.Errorf("registering %s: got %s@%d: %w", name, res.Name, res.Version, errWrong)
	}
	w.live = append(w.live, name)
	if len(w.live) > w.keep {
		old := w.live[0]
		w.live = w.live[1:]
		return lat, w.unregister(old)
	}
	return lat, nil
}

func (w *writer) unregister(name string) error {
	if _, err := w.http.do(http.MethodDelete, "/models/"+name, nil, http.StatusOK, spanClientWrite); err != nil {
		return fmt.Errorf("unregistering %s: %w", name, err)
	}
	return nil
}

// paced writes every interval until stop is closed, measuring how late
// each write started against its schedule.
func (w *writer) paced(interval time.Duration, stop <-chan struct{}) {
	start := time.Now()
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		late := float64(time.Since(due)) / float64(time.Millisecond)
		lat, err := w.write()
		w.late = append(w.late, late)
		p := w.phases[w.idx.Load()]
		p.tally(lat, 0, err)
		p.Writes++
	}
}

// drain unregisters every live variant.
func (w *writer) drain() error {
	for _, name := range w.live {
		if err := w.unregister(name); err != nil {
			return err
		}
	}
	w.live = nil
	return nil
}
