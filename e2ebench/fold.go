package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// modulePrefix is the import-path prefix of the repository's layers.
const modulePrefix = "pfi/internal/"

// Layer names the folding produces besides the repository's modules.
const (
	layerMalloc = "runtime.malloc"
	layerGC     = "runtime.gc"
	layerOther  = "other"
)

// foldTraces reads `go tool pprof -traces` output and sums every sample's
// value into the layer classify assigns to its stack. Frames reach
// classify leaf first, with any " (inline)" marker removed.
//
// A sample block starts after a separator line. Label lines such as
// "bytes:  136kB" (alloc profiles label each sample with its object size)
// precede the value line, which carries the value and the leaf frame; the
// caller frames follow on lines of their own.
func foldTraces(r io.Reader, classify func(frames []string) string) (map[string]float64, error) {
	out := map[string]float64{}
	var frames []string
	var value float64
	inSample := false
	flush := func() {
		if inSample {
			out[classify(frames)] += value
		}
		frames, value, inSample = frames[:0], 0, false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // header, blank or label line
		}
		if v, ok := parseQuantity(fields[0]); ok && len(fields) > 1 {
			if inSample {
				return nil, fmt.Errorf("pprof traces: second value line in one sample: %q", line)
			}
			inSample, value = true, v
			frames = append(frames, frameName(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), fields[0]))))
			continue
		}
		if !inSample {
			return nil, fmt.Errorf("pprof traces: frame before value line: %q", line)
		}
		frames = append(frames, frameName(strings.TrimSpace(line)))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !started {
		return nil, fmt.Errorf("pprof traces: no samples in output")
	}
	return out, nil
}

// frameName strips the inline marker pprof appends to inlined frames.
func frameName(f string) string { return strings.TrimSuffix(f, " (inline)") }

// units maps the value suffixes pprof prints to base units (ns, bytes).
var units = map[string]float64{
	"": 1, "ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9,
	"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "TB": 1 << 40,
}

// parseQuantity parses a pprof value such as "10ms", "596999B" or "1.50MB".
func parseQuantity(tok string) (float64, bool) {
	i := 0
	for i < len(tok) && (tok[i] >= '0' && tok[i] <= '9' || tok[i] == '.') {
		i++
	}
	if i == 0 {
		return 0, false
	}
	mult, ok := units[tok[i:]]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(tok[:i], 64)
	if err != nil {
		return 0, false
	}
	return v * mult, true
}

// moduleOf returns the repository module a frame belongs to.
func moduleOf(frame string) (string, bool) {
	rest, ok := strings.CutPrefix(frame, modulePrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i], true
	}
	return "", false
}

// allocLayer credits a stack to its innermost repository module.
func allocLayer(frames []string) string {
	for _, f := range frames {
		if m, ok := moduleOf(f); ok {
			return m
		}
	}
	return layerOther
}

// cpuLayer credits a CPU sample to the garbage collector when any frame
// is collector work, to the allocator when it runs inside mallocgc, and
// otherwise to its innermost repository module.
func cpuLayer(frames []string) string {
	malloc := false
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gc"), f == "runtime.bgsweep", f == "runtime.bgscavenge":
			return layerGC
		case f == "runtime.mallocgc":
			malloc = true
		}
	}
	if malloc {
		return layerMalloc
	}
	return allocLayer(frames)
}

// profiled is a traced segment with its profiles folded by layer.
type profiled struct {
	seg   *segment
	cpuNS map[string]float64 // CPU time per layer, ns
	alloc map[string]float64 // bytes allocated per layer
}

// profile runs fn under the CPU profiler and brackets it with allocation
// profiles, then folds both by layer with `go tool pprof -traces`.
func profile(fn func() (*segment, error), dir string) (*profiled, error) {
	cpuPath := filepath.Join(dir, "cpu.pprof")
	heap0, heap1 := filepath.Join(dir, "allocs0.pprof"), filepath.Join(dir, "allocs1.pprof")
	if err := writeAllocs(heap0); err != nil {
		return nil, err
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	seg, err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := writeAllocs(heap1); err != nil {
		return nil, err
	}
	p := &profiled{seg: seg}
	if p.cpuNS, err = foldProfile(cpuPath, cpuLayer, "-unit=ns"); err != nil {
		return nil, err
	}
	a0, err := foldProfile(heap0, allocLayer, "-sample_index=alloc_space", "-unit=B")
	if err != nil {
		return nil, err
	}
	if p.alloc, err = foldProfile(heap1, allocLayer, "-sample_index=alloc_space", "-unit=B"); err != nil {
		return nil, err
	}
	for k, v := range a0 {
		p.alloc[k] -= v
	}
	return p, nil
}

// writeAllocs writes the cumulative allocation profile, after a
// collection so it is current.
func writeAllocs(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		return err
	}
	return f.Close()
}

// foldProfile folds one profile file through `go tool pprof -traces`.
func foldProfile(path string, classify func([]string) string, args ...string) (map[string]float64, error) {
	args = append(append([]string{"tool", "pprof", "-traces"}, args...), path)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, stderr.String())
	}
	return foldTraces(bytes.NewReader(out), classify)
}
