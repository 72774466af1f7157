// Command benchjson turns `go test -bench -benchmem` output into the
// checked-in BENCH_*.json format: a host stanza, before/after metric
// blocks, and computed deltas.
//
// Benchmarks whose name ends in the -before-suffix, when one is given,
// land in "before" (keyed without the suffix); everything else lands in
// "after". Usage:
//
//	go test -bench 'FilterProcess|InterpEval' -benchmem -run @ . |
//	    go run ./tools/benchjson -note "..." -out BENCH_script.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type metrics struct {
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

type report struct {
	Host struct {
		CPU        string `json:"cpu"`
		Gomaxprocs int    `json:"gomaxprocs"`
		Note       string `json:"note,omitempty"`
	} `json:"host"`
	Before map[string]metrics           `json:"before"`
	After  map[string]metrics           `json:"after"`
	Deltas map[string]map[string]string `json:"deltas"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	note := flag.String("note", "", "host note to embed")
	beforeSuffix := flag.String("before-suffix", "", "benchmark name suffix marking the before/reference variant (none by default)")
	flag.Parse()

	r := report{
		Before: map[string]metrics{},
		After:  map[string]metrics{},
		Deltas: map[string]map[string]string{},
	}
	r.Host.Gomaxprocs = 1
	r.Host.Note = *note

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			r.Host.CPU = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, m, procs, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if procs > r.Host.Gomaxprocs {
			r.Host.Gomaxprocs = procs
		}
		if base, isBefore := strings.CutSuffix(name, *beforeSuffix); isBefore && *beforeSuffix != "" {
			r.Before[base] = m
		} else {
			r.After[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(r.After) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	for name, after := range r.After {
		before, ok := r.Before[name]
		if !ok {
			continue
		}
		d := map[string]string{}
		d["ns_op"] = delta(before.NsOp, after.NsOp)
		d["b_op"] = delta(float64(before.BOp), float64(after.BOp))
		d["allocs_op"] = delta(float64(before.AllocsOp), float64(after.AllocsOp))
		r.Deltas[name] = d
	}

	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&r); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.WriteString(sb.String())
		return
	}
	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBenchLine parses one testing benchmark result line:
//
//	BenchmarkName-8   1000000   123.4 ns/op   16 B/op   2 allocs/op
func parseBenchLine(line string) (name string, m metrics, procs int, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", m, 0, false
	}
	name = fields[0]
	procs = 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			m.NsOp, seen = v, true
		case "B/op":
			m.BOp = int64(v)
		case "allocs/op":
			m.AllocsOp = int64(v)
		}
	}
	return name, m, procs, seen
}

func delta(before, after float64) string {
	if before == 0 {
		return fmt.Sprintf("%v -> %v", before, after)
	}
	pct := (after - before) / before * 100
	return fmt.Sprintf("%+.0f%% (%v -> %v)", pct, trim(before), trim(after))
}

func trim(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
