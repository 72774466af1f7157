// Command e2ebench is PFI's end-to-end benchmark. It drives one named
// workload through the repository's public entry points from a single
// process, times the calls from outside, checks every output against a
// correctness digest, and prints every metric by name and unit.
//
// Usage (from the repository root, after building; see run.sh):
//
//	e2ebench --workload campaign-gmp --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics untraced. With
// --trace 1 it measures half of --seconds untraced and half under CPU and
// allocation profiling plus the benchmark's own span recorder, and prints
// the per-layer metrics, including the tracing overhead between the two
// halves. The last line of standard output is always the result object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pfi/internal/journal"
	"pfi/internal/script"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	stdout, stderr := os.Stdout, os.Stderr
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured wall time in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for journals, profiles and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	res, info, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"run": info}); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "e2ebench: %s: %d of %d ops failed their output checks\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runInfo is the stanza printed before the result: host, workload
// parameters and the digests the run checked.
type runInfo struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Pinned    bool     `json:"pinned"`
	Digests   []string `json:"digests"`
	TailPct   float64  `json:"op_ms_tail_percentile"`
	OpSamples int      `json:"op_ms_samples"`
	Host      host     `json:"host"`
	SpansPath string   `json:"spans_path,omitempty"`
}

// bench sets the workload up several times, then measures it.
func bench(w *workload, seed int64, d time.Duration, traced bool, out string) (*result, *runInfo, error) {
	info := &runInfo{Workload: w.name, Seed: seed, Trace: traced, TailPct: w.tail, Host: hostBefore()}
	var r runner
	var setupS []float64
	for i := 0; i < w.setups; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		start := time.Now()
		nr, err := w.setup(seed, out)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if r != nil && nr.warmDigest() != r.warmDigest() {
			nr.close()
			return nil, nil, fmt.Errorf("setup: warm-up op is not deterministic: digest %s, then %s", r.warmDigest(), nr.warmDigest())
		}
		r = nr
	}
	defer r.close()

	res := &result{Metrics: map[string]metric{}}
	if !traced {
		s, err := measure(r, d, nil)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{m.value(w, s, setupS), m.unit}
		}
		res.Attempted, res.Failed = s.ops, s.failed
		info.OpSamples = len(s.opMS)
	} else {
		plain, err := measure(r, d/2, nil)
		if err != nil {
			return nil, nil, err
		}
		r.restart()
		rec := newSpanRecorder()
		tr, err := profile(func() (*segment, error) { return measure(r, d/2, rec) }, out)
		if err != nil {
			return nil, nil, err
		}
		info.SpansPath = filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := rec.write(info.SpansPath); err != nil {
			return nil, nil, err
		}
		lm := layerMetrics(w, plain, tr, rec)
		for _, m := range perLayer {
			v, ok := lm[m.name]
			if !ok {
				return nil, nil, fmt.Errorf("per-layer metric %s was not computed", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		res.Attempted, res.Failed = plain.ops+tr.seg.ops, plain.failed+tr.seg.failed
		info.OpSamples = len(tr.seg.opMS)
	}
	info.Digests, info.Pinned = r.digests()
	info.Host.after()
	res.Correct = res.Failed == 0
	return res, info, nil
}

// segment is one measured stretch of the closed loop.
type segment struct {
	spans *spanRecorder // nil when untraced
	ops   int
	// failed counts ops whose output did not match the expected digest.
	failed int
	// opMS holds one wall-time sample per op (per generation on fuzz).
	opMS []float64
	// rssMB holds each unit's resident-memory high-water mark.
	rssMB []float64
	wall  time.Duration
	cpu   time.Duration
	mem   runtime.MemStats // TotalAlloc, Mallocs, NumGC, PauseTotalNs: deltas over the segment
	// script and journal are deltas of the process-wide counters.
	script  script.OptStats
	journal journal.Stats
	ctr     counters
}

// measure runs whole units of the workload back to back until d has
// passed, and records the process-level deltas over that stretch.
func measure(r runner, d time.Duration, spans *spanRecorder) (*segment, error) {
	s := &segment{spans: spans}
	var m0, m1 runtime.MemStats
	sc0, jl0 := script.Stats(), journal.GetStats()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for time.Since(start) < d {
		resetPeakRSS()
		if err := r.unit(s); err != nil {
			return nil, err
		}
		s.rssMB = append(s.rssMB, peakRSSMB())
	}
	s.wall = time.Since(start)
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	s.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	s.mem.Mallocs = m1.Mallocs - m0.Mallocs
	s.mem.NumGC = m1.NumGC - m0.NumGC
	s.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	s.script = scriptDelta(script.Stats(), sc0)
	jl1 := journal.GetStats()
	s.journal = journal.Stats{
		RecordsWritten: jl1.RecordsWritten - jl0.RecordsWritten,
		BytesWritten:   jl1.BytesWritten - jl0.BytesWritten,
	}
	if s.ops == 0 {
		return nil, errors.New("no op completed")
	}
	return s, nil
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
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

func median(xs []float64) float64 { return percentile(xs, 50) }

// logf reports a failed check on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// scriptDelta subtracts the script counters the metrics read.
func scriptDelta(a, b script.OptStats) script.OptStats {
	return script.OptStats{
		Compiles:    a.Compiles - b.Compiles,
		Deopts:      a.Deopts - b.Deopts,
		CacheHits:   a.CacheHits - b.CacheHits,
		CacheMisses: a.CacheMisses - b.CacheMisses,
	}
}
