package script

import (
	"fmt"
	"strings"
	"testing"
)

func TestSrcCachePointerIdentityHit(t *testing.T) {
	c := newSrcCache[int](16)
	src := "set x 1"
	c.put(src, 42)
	if v, ok := c.get(src); !ok || v != 42 {
		t.Fatalf("get = (%d,%v), want (42,true)", v, ok)
	}
	// A byte-identical string with a different backing array must still hit
	// (content fallback), and get promoted to a pointer alias.
	copySrc := string([]byte(src))
	if v, ok := c.get(copySrc); !ok || v != 42 {
		t.Fatalf("content-fallback get = (%d,%v), want (42,true)", v, ok)
	}
	if v, ok := c.get(copySrc); !ok || v != 42 {
		t.Fatalf("promoted-alias get = (%d,%v), want (42,true)", v, ok)
	}
}

func TestSrcCacheEvictionKeepsRecent(t *testing.T) {
	c := newSrcCache[int](8)
	hot := "hot body"
	c.put(hot, 1)
	for i := 0; i < 7; i++ {
		c.put(fmt.Sprintf("cold %d", i), i)
		// Touch the hot entry after every insert so it stays most recent.
		if _, ok := c.get(hot); !ok {
			t.Fatalf("hot entry lost before eviction")
		}
	}
	// The next put hits the limit and evicts the LRU half — which must not
	// include the hot entry.
	c.put("overflow", 99)
	if _, ok := c.get(hot); !ok {
		t.Fatal("eviction dropped the most recently used entry")
	}
	if _, ok := c.get("overflow"); !ok {
		t.Fatal("eviction dropped the brand-new entry")
	}
	if got := c.len(); got > 8 {
		t.Fatalf("cache size %d exceeds limit 8", got)
	}
	// Half the old entries must be gone.
	survivors := 0
	for i := 0; i < 7; i++ {
		if _, ok := c.get(fmt.Sprintf("cold %d", i)); ok {
			survivors++
		}
	}
	if survivors == 7 {
		t.Fatal("eviction removed nothing")
	}
}

func TestInterpCompileCacheBounded(t *testing.T) {
	in := New()
	// Far more distinct sources than the cache limit: the old implementation
	// nuked the whole cache; the new one must stay bounded and keep working.
	for i := 0; i < 10000; i++ {
		src := fmt.Sprintf("set v%d %d", i, i)
		if _, err := in.Eval(src); err != nil {
			t.Fatal(err)
		}
	}
	if got := in.scripts.len(); got > 4096 {
		t.Fatalf("script cache grew to %d entries (limit 4096)", got)
	}
	// Recently evaluated sources should still be cached.
	if _, ok := in.scripts.get("set v9999 9999"); !ok {
		t.Error("most recent script evicted")
	}
}

// The parse cache seen through Eval: pointer-alias interning under the
// alias cap, re-parse on a miss after eviction, and hot entries surviving
// the LRU half-drop.

func TestProgramCacheAliasCap(t *testing.T) {
	in := New()
	const src = `set alias_probe 1; incr alias_probe`
	// Present the same content through many distinct string headers: each
	// copy misses the pointer index but hits the content index, which may
	// register at most maxAliases pointer aliases per entry.
	for i := 0; i < 20; i++ {
		copySrc := string([]byte(src))
		evalOK(t, in, copySrc)
	}
	if n := in.scripts.len(); n != 1 {
		t.Fatalf("script cache has %d entries for one distinct source, want 1", n)
	}
	e := in.scripts.bySrc[src]
	if e == nil {
		t.Fatalf("content index lost the entry")
	}
	if len(e.keys) > maxAliases {
		t.Fatalf("entry holds %d pointer aliases, cap is %d", len(e.keys), maxAliases)
	}
}

func TestProgramCacheRecompileOnMiss(t *testing.T) {
	in := New()
	const hot = `set recompiled 1`
	evalOK(t, in, hot)
	p1, ok := in.scripts.get(hot)
	if !ok {
		t.Fatalf("script not cached after eval")
	}
	// Flood the cache past its limit so eviction drops the now-cold entry.
	for i := 0; i < 4100; i++ {
		evalOK(t, in, fmt.Sprintf(`set flood_%d %d`, i, i))
	}
	if _, ok := in.scripts.get(hot); ok {
		t.Fatalf("cold entry survived a full flood; eviction not exercised")
	}
	// A miss must transparently re-parse — same results, fresh *Script.
	if r := evalOK(t, in, hot); r != "1" {
		t.Fatalf("recompiled eval = %q, want 1", r)
	}
	p2, ok := in.scripts.get(hot)
	if !ok {
		t.Fatalf("script not re-cached after re-parse")
	}
	if p1 == p2 {
		t.Fatalf("expected a fresh *Script after eviction, got the evicted pointer back")
	}
}

func TestProgramCacheHotEntrySurvivesEviction(t *testing.T) {
	in := New()
	const hot = `set hot_counter 0`
	evalOK(t, in, hot)
	p1, ok := in.scripts.get(hot)
	if !ok {
		t.Fatalf("hot script not cached")
	}
	// Interleave hot touches with cold inserts: LRU half-drop must keep the
	// hot entry because its lastUse stays recent.
	for i := 0; i < 9000; i++ {
		evalOK(t, in, fmt.Sprintf(`set cold_%d x`, i))
		if i%100 == 0 {
			evalOK(t, in, hot)
		}
	}
	p2, ok := in.scripts.get(hot)
	if !ok {
		t.Fatalf("hot script evicted despite frequent use")
	}
	if p1 != p2 {
		t.Fatalf("hot script was re-parsed (pointer changed) despite frequent use")
	}
}

func TestProgramCacheRecompileSeesNewShadow(t *testing.T) {
	// A cached script run after a special form is shadowed by a proc must
	// dispatch to the proc, as must a script parsed after the shadowing.
	in := New()
	evalOK(t, in, `set g 0; if {1} { set g 1 }`)
	evalOK(t, in, `proc if {args} { return shadowed }`)
	if r := evalOK(t, in, `set g 0; if {1} { set g 1 }`); r != "shadowed" {
		t.Fatalf("cached script after shadow = %q, want shadowed", r)
	}
	if r := evalOK(t, in, `if {1} { set g 2 }`); r != "shadowed" {
		t.Fatalf("fresh script after shadow = %q, want shadowed", r)
	}
	if v, _ := in.Var("g"); v != "0" {
		t.Fatalf("shadowed if still ran a branch: g=%q", v)
	}
}

func TestProgramCacheStepLimitReplay(t *testing.T) {
	// A cached script must honor step-limit changes made after it was parsed.
	in := New()
	src := `set i 0; while {$i < 50} { incr i }; set i`
	if r := evalOK(t, in, src); r != "50" {
		t.Fatalf("first run = %q", r)
	}
	in.SetStepLimit(10)
	_, err := in.Eval(src)
	if err == nil || !strings.Contains(err.Error(), "step limit 10 exceeded") || !in.StepLimitHit() {
		t.Fatalf("cached script ignored new step limit: err=%v hit=%v", err, in.StepLimitHit())
	}
}

// TestOptStatsCounters: Compiles counts parses on a cache miss, and the
// hit and miss counters move with cache traffic.
func TestOptStatsCounters(t *testing.T) {
	in := New()
	before := Stats()
	src := fmt.Sprintf(`set r %d`, before.Compiles)
	evalOK(t, in, src)
	mid := Stats()
	if mid.Compiles != before.Compiles+1 || mid.CacheMisses <= before.CacheMisses {
		t.Errorf("first eval: %+v -> %+v, want one compile and a miss", before, mid)
	}
	evalOK(t, in, src)
	after := Stats()
	if after.Compiles != mid.Compiles || after.CacheHits <= mid.CacheHits {
		t.Errorf("second eval: %+v -> %+v, want a hit and no compile", mid, after)
	}
	if after.Deopts != 0 {
		t.Errorf("Deopts = %d, want 0", after.Deopts)
	}
}

func TestProcProgramsCacheSeparately(t *testing.T) {
	// The same body text evaluated at global scope and as a proc body
	// shares one parsed Script, but each run resolves variables in its own
	// scope: the global eval writes a global, the proc a frame local.
	in := New()
	const body = `set mode_probe 7; set mode_probe`
	if r := evalOK(t, in, body); r != "7" {
		t.Fatalf("global eval = %q", r)
	}
	if _, ok := in.scripts.get(body); !ok {
		t.Fatalf("global body missing from the parse cache")
	}
	evalOK(t, in, `set mode_probe 1; proc p {} {set mode_probe 7; set mode_probe}`)
	if r := evalOK(t, in, `p`); r != "7" {
		t.Fatalf("proc eval = %q", r)
	}
	if v, ok := in.Var("mode_probe"); !ok || v != "1" {
		t.Fatalf("global mode_probe = %q, %v after the proc ran; want 1", v, ok)
	}
}
