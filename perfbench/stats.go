package main

import (
	"bufio"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + (xs[lo+1]-xs[lo])*frac
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// cpuTime is the process's user+sys CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCounters is a snapshot of the process-wide counters the run
// takes deltas of: CPU time, bytes allocated and GC cycles.
type procCounters struct {
	at         time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readProc() procCounters {
	s := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(s)
	return procCounters{
		at:         time.Now(),
		cpu:        cpuTime(),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
	}
}

// liveHeap collects garbage twice (the second pass frees what the
// first pass's finalizers released) and returns the bytes held by live
// heap objects.
func liveHeap() uint64 {
	goruntime.GC()
	goruntime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// host is the fingerprint recorded with every result, so numbers are
// only ever compared against numbers from the same kind of machine.
type host struct {
	NumCPU           int    `json:"num_cpu"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	GOARCH           string `json:"goarch"`
	CPUModel         string `json:"cpu_model"`
	GoVersion        string `json:"go_version"`
	RepoOnTmpfs      bool   `json:"repo_on_tmpfs"`
	TimerOvershootUS int64  `json:"timer_overshoot_us"`
}

// fingerprint describes this machine. repoDir is the model repository
// the run serves from.
func fingerprint(repoDir string) host {
	return host{
		NumCPU:           goruntime.NumCPU(),
		GOMAXPROCS:       goruntime.GOMAXPROCS(0),
		GOARCH:           goruntime.GOARCH,
		CPUModel:         cpuModel(),
		GoVersion:        goruntime.Version(),
		RepoOnTmpfs:      onTmpfs(repoDir),
		TimerOvershootUS: timerOvershoot().Microseconds(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// onTmpfs reports whether dir sits on a RAM-backed file system, where
// fsync on publish is free.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	return st.Type == tmpfsMagic
}

// timerOvershoot is the median amount by which a 200µs sleep oversleeps
// on this host. Paced loops must be far coarser than this.
func timerOvershoot() time.Duration {
	const want = 200 * time.Microsecond
	xs := make([]float64, 31)
	for i := range xs {
		t0 := time.Now()
		time.Sleep(want)
		xs[i] = float64(time.Since(t0) - want)
	}
	return time.Duration(median(xs))
}
