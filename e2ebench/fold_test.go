package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func foldFile(t *testing.T, path string, classify func([]string) string) map[string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f, classify)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFoldCPU pins the CPU folding rules: collector work (background or
// assist, even under mallocgc) is runtime.gc, other time inside mallocgc
// is runtime.malloc, and the rest goes to the innermost repository
// module, an inlined leaf frame included.
func TestFoldCPU(t *testing.T) {
	got := foldFile(t, "testdata/cpu.traces", cpuLayer)
	want := map[string]float64{
		layerMalloc: 10e6,
		"message":   20e6, // inlined SetAttr leaf, not its rudp caller
		layerGC:     30e6 + 40e6 + 10e6,
		"gmp":       10e6,
		layerOther:  50e6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cpu fold:\n got %v\nwant %v", got, want)
	}
}

// TestFoldAlloc pins the allocation folding: the "bytes:" label line an
// alloc sample starts with is not its value, and an inlined leaf frame is
// credited to its own package.
func TestFoldAlloc(t *testing.T) {
	got := foldFile(t, "testdata/alloc.traces", allocLayer)
	want := map[string]float64{
		"message":  524432 + 2097728,
		"gmp":      524304,
		layerOther: 596999,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alloc fold:\n got %v\nwant %v", got, want)
	}
}

func TestFoldRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"no samples":      "File: x\nType: cpu\n",
		"frame first":     "-----------+---\n             main.main\n",
		"two value lines": "-----------+---\n10ms   main.a\n20ms   main.b\n",
	} {
		if _, err := foldTraces(strings.NewReader(in), allocLayer); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestParseQuantity(t *testing.T) {
	for tok, want := range map[string]float64{
		"10ms": 10e6, "10000000ns": 10e6, "1.50s": 1.5e9, "596999B": 596999,
		"512.02kB": 512.02 * 1024, "2MB": 2 << 20, "7": 7,
	} {
		if got, ok := parseQuantity(tok); !ok || got != want {
			t.Errorf("parseQuantity(%q) = %v, %v; want %v", tok, got, ok, want)
		}
	}
	for _, tok := range []string{"bytes:", "main.main", "10parsecs", ""} {
		if _, ok := parseQuantity(tok); ok {
			t.Errorf("parseQuantity(%q) accepted", tok)
		}
	}
}

// TestSpanSelfTime checks that self time is a span's duration minus the
// union of its children's intervals, clipped to the parent.
func TestSpanSelfTime(t *testing.T) {
	r := newSpanRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	r.add("op", 0, 1, at(0), at(100))
	r.add("a", 1, 1, at(10), at(40))
	r.add("b", 1, 1, at(30), at(50))    // overlaps a: union 10..50
	r.add("c", 1, 1, at(90), at(120))   // clipped to 90..100
	r.add("op", 0, 2, at(200), at(210)) // no children
	sum := r.summary()
	op := sum["op"]
	if op.Count != 2 || op.Total != 110*time.Millisecond {
		t.Fatalf("op count %d total %v", op.Count, op.Total)
	}
	if want := (100-40-10)*time.Millisecond + 10*time.Millisecond; op.Self != want {
		t.Fatalf("op self %v, want %v", op.Self, want)
	}
	if a := sum["a"]; a.Self != a.Total {
		t.Fatalf("leaf self %v != total %v", a.Self, a.Total)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 50); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(xs, 75); p != 4 {
		t.Fatalf("p75 = %v", p)
	}
	if p := percentile(xs, 100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
}
