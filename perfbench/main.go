// Command perfbench is the end-to-end serving benchmark. It generates
// a seeded workload, publishes the models into an on-disk repository,
// brings up the node stack in-process the way pretzel-server does in
// node mode (frontend over lifecycle.Manager over serving.Local over
// runtime), drives one named workload and prints its metrics, checking
// every output against the uncompiled pipeline.
//
//	perfbench --workload sa-rr --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// again with spans recorded around each layer's public calls and
// prints the per-layer metrics, plus the tracing overhead measured
// against an untraced window of the same run. The last line of
// standard output is the result JSON; the line before it is a report
// with the host fingerprint, seeds and per-phase counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// spec is one named workload.
type spec struct {
	name    string
	catalog string // "sa" or "ac"
	http    bool   // traffic is POST /predict over loopback HTTP
	callers int    // closed-loop callers, each with its own connection
	// budgetFrac, when > 0, loads lazily under a RAM budget of this
	// fraction of the catalog's accounted bytes and runs the writer.
	budgetFrac float64
	warmup     time.Duration
}

var specs = []spec{
	{name: "sa-rr", catalog: "sa", http: true, callers: 2, warmup: time.Second},
	{name: "ac-batch", catalog: "ac", callers: 1, warmup: time.Second},
	{name: "longtail-mixed", catalog: "sa", http: true, callers: 2, budgetFrac: 0.4, warmup: 5 * time.Second},
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: sa-rr, ac-batch or longtail-mixed")
		seed      = flag.Int64("seed", 1, "traffic seed: request inputs, model choice and writer variants")
		modelSeed = flag.Int64("model-seed", 2018, "model seed: the generated catalog (cached on disk per seed)")
		seconds   = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sa-rr|ac-batch|longtail-mixed, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{
		spec:      *sp,
		seed:      *seed,
		modelSeed: *modelSeed,
		window:    time.Duration(*seconds) * time.Second,
		traced:    *trace == 1,
	}
	rep, res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(map[string]any{"report": rep})
	if err == nil {
		fmt.Println(string(line))
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
