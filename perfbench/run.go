package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // small inputs, for the package's tests
	dir      string
}

const (
	// setupReps is how many times a run builds its workload from
	// scratch; setup_s is the median. The last build is the one timed.
	setupReps = 3
	// reopens is how many times a run reopens each durable store;
	// recover_s is the median.
	reopens = 15
	// tailPct is the tail percentile of answer latency on the info
	// line. A full run keeps measuring until it holds at least
	// minTailSamples answers, so at least ten lie beyond it.
	tailPct        = 90
	minTailSamples = 100
	// dataSeed generates every dataset and history. The --seed argument
	// fixes the order of operations and the template bindings, so runs
	// with different seeds measure the same work in a different order.
	dataSeed = 1
)

// mix is one named workload: a traffic mix. A run builds it setupReps times,
// then drives whole rounds of its operations through the timed window,
// then checks every answer and reopens its durable stores.
type mix interface {
	// setUp generates the inputs, ingests them into durable stores and
	// warms up. Everything it does counts toward setup_s.
	setUp(r *run) error
	// round runs one whole round of timed operations.
	round(r *run) error
	// traceSetUp prepares the traced replay (untimed, traced runs only).
	traceSetUp(r *run) error
	// check verifies every answer of the window against the oracle.
	check(r *run) error
	// stores lists the durable stores to reopen; close stops servers
	// and closes the stores.
	stores() []*durable
	close() error
}

var workloads = map[string]func(r *run, rep int) mix{
	"serve-warm":     newServeWarm,
	"cold-mixed":     newColdMixed,
	"template-sweep": newTemplateSweep,
	"append-mix":     newAppendMix,
}

// run accumulates one invocation's measurements.
type run struct {
	cfg config
	ctx context.Context

	setups   []float64 // seconds
	answers  []float64 // ms per timed answer
	appends  []float64 // ms per durable append (set-up ingest and live)
	recovers []float64 // seconds per reopen

	attempted, failed int
	windowOps         int
	liveAppends       int // appends inside the timed window (append-mix)
	// outside, outsideCPU and outsideAlloc are the time, the process
	// CPU time and the bytes allocated by work done inside the window
	// that is not the workload's own: logging answers, fault probes,
	// restarting append-mix's store. They are taken out of the
	// window's figures.
	outside      time.Duration
	outsideCPU   time.Duration
	outsideAlloc uint64
	mu           sync.Mutex // guards failed and problems during parallel checks
	problems     []string

	layers *layers
	inputs map[string]any
}

// fail records a problem that n attempted operations failed on (a
// wrong answer, acknowledgement or traced replay; 0 for a wrong
// reopen); the run then reports correct=false.
func (r *run) fail(n int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// answer records one timed answer's latency.
func (r *run) answer(d time.Duration) {
	r.answers = append(r.answers, ms(d))
	r.attempted++
	r.windowOps++
}

// untimed runs f inside the window but outside its figures: f's time
// and allocations are subtracted from the window's.
func (r *run) untimed(f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	err := f()
	r.outside += time.Since(t0)
	r.outsideCPU += cpuTime() - c0
	runtime.ReadMemStats(&m1)
	r.outsideAlloc += m1.TotalAlloc - m0.TotalAlloc
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the CPU time, user and system, that every thread of the
// process has used so far: the engine's, the HTTP server's and client's,
// and the garbage collector's. Time the host lets other machines run on
// this one's CPUs is not in it, so it varies less from run to run than
// wall-clock time, which follows the neighbours' load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	info map[string]any
	out  output
}

func execute(cfg config) (*result, error) {
	r := &run{cfg: cfg, ctx: context.Background(), layers: newLayers(), inputs: map[string]any{}}
	newW := workloads[cfg.workload]

	var w mix
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		} else {
			if err := w.close(); err != nil {
				return nil, err
			}
			for _, d := range w.stores() {
				os.RemoveAll(d.dir)
			}
			w = nil
			debug.FreeOSMemory()
			start = time.Now()
		}
		w = newW(r, rep)
		if err := w.setUp(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	if cfg.trace {
		if err := w.traceSetUp(r); err != nil {
			return nil, fmt.Errorf("trace set-up: %w", err)
		}
	}

	// The timed window: whole rounds until the window has elapsed and
	// every latency series can carry a tail percentile.
	minSamples := minTailSamples
	if cfg.tiny || cfg.trace {
		minSamples = 0
	}
	// Start every window from the same heap: collected, and with the
	// set-ups' freed memory returned to the OS rather than left to the
	// background scavenger to return during the window.
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	window := time.Duration(cfg.seconds * float64(time.Second))
	cpu0, start := cpuTime(), time.Now()
	rounds := 0
	for time.Since(start)-r.outside < window || len(r.answers) < minSamples {
		if err := w.round(r); err != nil {
			return nil, fmt.Errorf("round %d: %w", rounds, err)
		}
		rounds++
	}
	elapsed := time.Since(start) - r.outside
	cpu := cpuTime() - cpu0 - r.outsideCPU
	runtime.ReadMemStats(&m1)
	// Two collections: the first moves sync.Pool contents to the pools'
	// victim caches, where they stay live; the second frees them. With
	// one, live_heap_mb varied by up to a quarter with which answer ran last.
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	liveHeap := m2.HeapAlloc
	runtime.KeepAlive(w)

	checkStart := time.Now()
	if err := w.check(r); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	checkS := time.Since(checkStart).Seconds()
	if err := w.close(); err != nil {
		return nil, err
	}
	for _, d := range w.stores() {
		if err := d.recover(r); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
	}

	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host":   hostInfo(),
		"inputs": r.inputs,
		"window": map[string]any{
			"seconds": elapsed.Seconds(), "rounds": rounds, "answers": len(r.answers),
			"outside_s": r.outside.Seconds(), "outside_cpu_s": r.outsideCPU.Seconds(),
			"outside_mb_per_op": float64(r.outsideAlloc) / float64(max(r.windowOps, 1)) / 1e6,
			"appends_in_window": r.liveAppends, "appends_total": len(r.appends),
			"gc_cycles": m1.NumGC - m0.NumGC, "tail_percentile": tailPct,
			// Wall-clock figures, which follow the host's load (README).
			"answer_p50_ms":  percentile(r.answers, 50),
			"answer_tail_ms": percentile(r.answers, tailPct),
			"answers_per_s":  float64(len(r.answers)) / elapsed.Seconds(),
			"append_p50_ms":  percentile(r.appends, 50),
			"append_p90_ms":  percentile(r.appends, 90),
		},
		"setups_s":   r.setups,
		"check_s":    checkS,
		"recovers_s": r.recovers,
		"recover_s":  median(r.recovers),
		"problems":   r.problems,
	}
	res := &result{info: info, out: output{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}}
	if cfg.trace {
		r.layers.value("trace.answer_p50_ms", median(r.answers))
		r.layers.value("persist.append_ms", median(r.appends))
		res.out.Metrics = r.layers.metrics()
		path := filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := r.layers.tr.write(path); err != nil {
			return nil, err
		}
		info["spans_file"] = path
		return res, nil
	}
	ops := max(r.windowOps, 1)
	put := func(name, unit string, v float64) { res.out.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(r.setups))
	put("cpu_ms_per_op", "ms", ms(cpu)/float64(ops))
	put("alloc_mb_per_op", "MB", float64(m1.TotalAlloc-m0.TotalAlloc-r.outsideAlloc)/float64(ops)/1e6)
	put("live_heap_mb", "MB", float64(liveHeap)/1e6)
	return res, nil
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile by linear interpolation
// between closest ranks (0 for an empty series).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
