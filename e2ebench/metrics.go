package main

import "time"

// e2eMetric is an end-to-end metric: what a user of the system sees.
// Each is measured untraced, over the whole --seconds stretch.
type e2eMetric struct {
	name, unit string
	value      func(w *workload, s *segment, setupS []float64) float64
}

var endToEnd = []e2eMetric{
	{"ops_per_s", "1/s", func(_ *workload, s *segment, _ []float64) float64 {
		return float64(s.ops) / s.wall.Seconds()
	}},
	{"op_ms.p50", "ms", func(_ *workload, s *segment, _ []float64) float64 { return percentile(s.opMS, 50) }},
	{"op_ms.tail", "ms", func(w *workload, s *segment, _ []float64) float64 { return percentile(s.opMS, w.tail) }},
	{"cpu_ms_per_op", "ms", func(_ *workload, s *segment, _ []float64) float64 {
		return ms(s.cpu) / float64(s.ops)
	}},
	{"alloc_bytes_per_op", "B", func(_ *workload, s *segment, _ []float64) float64 {
		return float64(s.mem.TotalAlloc) / float64(s.ops)
	}},
	{"allocs_per_op", "count", func(_ *workload, s *segment, _ []float64) float64 {
		return float64(s.mem.Mallocs) / float64(s.ops)
	}},
	// The median over units of each unit's resident-memory high-water
	// mark: one GC overshoot cannot decide it.
	{"peak_rss_mb", "MB", func(_ *workload, s *segment, _ []float64) float64 { return median(s.rssMB) }},
	{"setup_s", "s", func(_ *workload, _ *segment, setupS []float64) float64 { return median(setupS) }},
}

// modules are the repository packages the profiles are folded into.
var modules = []string{
	"script", "core", "message", "stack", "netsim", "simtime", "trace", "tcp", "gmp", "rudp",
	"raft", "snapshot", "explore", "conformance", "campaign", "harden", "journal", "dist", "exp",
}

type layerDef struct{ name, unit string }

// perLayer lists every per-layer metric a traced run prints, in order.
var perLayer = func() []layerDef {
	var ls []layerDef
	for _, m := range append(append([]string(nil), modules...), layerOther) {
		ls = append(ls, layerDef{m + ".self_ns_per_op", "ns"}, layerDef{m + ".alloc_bytes_per_op", "B"})
	}
	return append(ls,
		layerDef{"runtime.malloc_self_ns_per_op", "ns"},
		layerDef{"runtime.gc_self_ns_per_op", "ns"},
		layerDef{"runtime.gc_cycles_per_op", "count"},
		layerDef{"runtime.gc_pause_ms_per_op", "ms"},
		layerDef{"netsim.build_us_per_op", "us"},
		layerDef{"core.install_us_per_op", "us"},
		layerDef{"netsim.run_ms_per_op", "ms"},
		layerDef{"simtime.steps_per_op", "count"},
		layerDef{"trace.entries_per_op", "count"},
		layerDef{"campaign.worker_busy_ratio", "ratio"},
		layerDef{"bench.op_self_ms_per_op", "ms"},
		layerDef{"journal.records_per_op", "count"},
		layerDef{"journal.bytes_per_op", "B"},
		layerDef{"journal.sync_ms", "ms"},
		layerDef{"script.compiles_per_op", "count"},
		layerDef{"script.cache_hit_ratio", "ratio"},
		layerDef{"script.deopts_per_op", "count"},
		layerDef{"snapshot.fork_ratio", "ratio"},
		layerDef{"snapshot.fallbacks", "count"},
		layerDef{"explore.generation_ms", "ms"},
		layerDef{"explore.shrink_share", "ratio"},
		layerDef{"conformance.replay_ms", "ms"},
		layerDef{"raft.sim_s_per_wall_s", "s/s"},
		layerDef{"bench.untraced_ops_per_s", "1/s"},
		layerDef{"bench.traced_ops_per_s", "1/s"},
		layerDef{"bench.tracing_overhead", "ratio"},
	)
}()

// layerMetrics computes every per-layer metric. plain is the untraced
// half of a traced run, p the profiled half; per-op figures divide by the
// ops of the profiled half.
func layerMetrics(w *workload, plain *segment, p *profiled, rec *spanRecorder) map[string]float64 {
	s := p.seg
	ops := float64(s.ops)
	out := map[string]float64{}
	cpuOther, allocOther := 0.0, 0.0
	for _, v := range p.cpuNS {
		cpuOther += v
	}
	for _, v := range p.alloc {
		allocOther += v
	}
	for _, m := range modules {
		out[m+".self_ns_per_op"] = p.cpuNS[m] / ops
		out[m+".alloc_bytes_per_op"] = p.alloc[m] / ops
		cpuOther -= p.cpuNS[m]
		allocOther -= p.alloc[m]
	}
	out["runtime.malloc_self_ns_per_op"] = p.cpuNS[layerMalloc] / ops
	out["runtime.gc_self_ns_per_op"] = p.cpuNS[layerGC] / ops
	cpuOther -= p.cpuNS[layerMalloc] + p.cpuNS[layerGC]
	out[layerOther+".self_ns_per_op"] = cpuOther / ops
	out[layerOther+".alloc_bytes_per_op"] = allocOther / ops
	out["runtime.gc_cycles_per_op"] = float64(s.mem.NumGC) / ops
	out["runtime.gc_pause_ms_per_op"] = float64(s.mem.PauseTotalNs) / 1e6 / ops

	sp := rec.summary()
	stat := func(name string) *spanStat {
		if st := sp[name]; st != nil {
			return st
		}
		return &spanStat{}
	}
	out["netsim.build_us_per_op"] = us(stat("netsim.build").Total) / ops
	out["core.install_us_per_op"] = us(stat("core.install").Total) / ops
	out["netsim.run_ms_per_op"] = ms(stat("netsim.run").Total) / ops
	out["simtime.steps_per_op"] = float64(s.ctr.steps) / ops
	out["trace.entries_per_op"] = float64(s.ctr.entries) / ops
	opSpan := stat(w.opSpan)
	out["campaign.worker_busy_ratio"] = opSpan.Total.Seconds() / (s.wall.Seconds() * float64(w.workers))
	out["bench.op_self_ms_per_op"] = ms(opSpan.Self) / ops

	out["journal.records_per_op"] = float64(s.journal.RecordsWritten) / ops
	out["journal.bytes_per_op"] = float64(s.journal.BytesWritten) / ops
	out["journal.sync_ms"] = ratio(ms(s.ctr.syncDur), float64(s.ctr.syncs))

	out["script.compiles_per_op"] = float64(s.script.Compiles) / ops
	out["script.cache_hit_ratio"] = ratio(float64(s.script.CacheHits), float64(s.script.CacheHits+s.script.CacheMisses))
	out["script.deopts_per_op"] = float64(s.script.Deopts) / ops

	out["snapshot.fork_ratio"] = ratio(float64(s.ctr.snap.FastRuns), float64(s.ctr.snap.FastRuns+s.ctr.snap.FreshRuns))
	out["snapshot.fallbacks"] = float64(s.ctr.snap.Fallbacks)
	out["explore.generation_ms"] = median(stat("explore.generation").Durations)
	out["explore.shrink_share"] = ratio(float64(s.ctr.shrinks), float64(s.ctr.runs+s.ctr.shrinks))

	replay := stat("conformance.replay")
	out["conformance.replay_ms"] = median(replay.Durations)
	out["raft.sim_s_per_wall_s"] = ratio(s.ctr.simTime.Seconds(), replay.Total.Seconds())

	untraced := float64(plain.ops) / plain.wall.Seconds()
	traced := ops / s.wall.Seconds()
	out["bench.untraced_ops_per_s"] = untraced
	out["bench.traced_ops_per_s"] = traced
	out["bench.tracing_overhead"] = 1 - traced/untraced
	return out
}

// ratio is a/b, or 0 when b is 0 (the layer was not used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
