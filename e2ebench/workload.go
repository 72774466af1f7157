package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pfi/internal/explore"
)

// workload is one named closed-loop input the benchmark can run.
type workload struct {
	name string
	// tail is the percentile op_ms.tail reports. A run must collect at
	// least ten samples beyond it: p95 where a run times thousands of
	// ops, p50 where it times a few dozen.
	tail float64
	// setups is how many times a run builds the workload, each time with
	// one untimed warm-up op; setup_s reports the median.
	setups int
	// workers is the closed loop's concurrency.
	workers int
	// opSpan names the span that covers one unit of the workload's work
	// (one case, one fuzz run, one replay).
	opSpan string
	// setup builds the workload for a seed and runs one untimed warm-up
	// op; out is a scratch directory inside the checkout.
	setup func(seed int64, out string) (runner, error)
}

// runner is a workload that has been set up.
type runner interface {
	// unit runs one unit of closed-loop work (a sweep, a fuzz run, a
	// replay), checks its outputs, and adds its ops to s.
	unit(s *segment) error
	// restart makes the next unit start the workload's input sequence
	// over, so two segments of one run measure the same inputs.
	restart()
	// warmDigest is the digest of the set-up's warm-up op; every set-up
	// of one seed must agree on it.
	warmDigest() string
	// digests lists the unit digests the run checked, and whether they
	// were checked against pinned values.
	digests() ([]string, bool)
	close()
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// counters are workload-level counts a segment accumulates; a workload
// leaves the ones that do not apply to it at zero.
type counters struct {
	steps   int64 // simtime steps (campaign scenario RunFor results)
	entries int64 // trace entries
	syncs   int   // journal final Sync/Close calls
	syncDur time.Duration
	runs    int // fuzz candidate evaluations
	shrinks int // fuzz shrink evaluations
	snap    explore.SnapshotStats
	simTime time.Duration // virtual time the raft replays covered
}

// checker compares unit digests with pinned values or, for seeds that
// have none, with the digest the same input produced first in this run.
type checker struct {
	pinned []string
	seen   map[int]string
}

func newChecker(workload string, seed int64) *checker {
	return &checker{pinned: pins[workload][seed], seen: map[int]string{}}
}

// check reports whether the digest of the unit with input index i is
// the expected one.
func (c *checker) check(i int, got string) bool {
	want, known := c.seen[i]
	if !known {
		c.seen[i] = got
	}
	if i < len(c.pinned) {
		want, known = c.pinned[i], true
	}
	return !known || got == want
}

func (c *checker) digests() ([]string, bool) {
	out := make([]string, len(c.seen))
	for i, d := range c.seen {
		if i < len(out) {
			out[i] = d
		}
	}
	return out, len(c.pinned) > 0
}

// digest is a 64-bit FNV-1a hash fed field by field, so hashing a
// 100k-entry trace allocates nothing.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) byte(b byte) {
	*d ^= digest(b)
	*d *= 1099511628211
}

// str hashes s followed by a separator, so field boundaries count.
func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
	d.byte(0)
}

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v >> (8 * i)))
	}
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// subSeed derives the seed of the i-th input from the workload seed
// (splitmix64); input 0 uses the workload seed itself.
func subSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
