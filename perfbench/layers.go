package main

import (
	"fmt"
	"io"
	"os"
)

// layerSource is one workload's traced spans and exact counts. A
// traced run reads each layer metric from the first source that has
// it: the run's own workload, then the fill workloads in order.
type layerSource struct {
	workload string
	spans    []span
	counts   map[string]float64
}

// Per-layer metrics read as the median duration of a span.
var spanMedians = []struct{ metric, span string }{
	{"vax.assemble_ms", "vax.assemble"},
	{"kernel.boot_ms", "kernel.boot"},
	{"kernel.run_ms", "kernel.run"},
	{"kernel.run_untraced_ms", "kernel.run_untraced"},
	{"kernel.spill_close_ms", "kernel.spill_close"},
	{"trace.encode_ms.raw", "trace.encode.raw"},
	{"trace.encode_ms.flate", "trace.encode.flate"},
	{"trace.open_ms", "trace.open"},
	{"trace.merge_ms", "trace.merge"},
	{"sweep.pipeline_drain_ms", "sweep.pipeline_drain"},
	{"serve.analyze_ms_p50", "serve.analyze"},
	{"serve.upload_ms_p50", "serve.upload"},
	{"serve.capture_ms_p50", "serve.capture"},
	{"serve.lint_ms_p50", "serve.lint"},
	{"serve.info_ms_p50", "serve.info"},
}

// Per-layer metrics read as nanoseconds per unit of span work (records
// times configurations replayed).
var spanNsPerRef = []struct{ metric, span string }{
	{"cache.ns_per_ref", "cache.sweep"},
	{"cache.hierarchy_ns_per_ref", "cache.hierarchy"},
	{"tlbsim.ns_per_ref", "tlbsim.sweep"},
	{"stackdist.ns_per_ref", "stackdist.profile"},
}

// Counts ops and lanes record: the exact simulated outputs the pins
// hold (reported so a change that moves one shows here too), and the
// serve layer's arena hit ratio.
var counted = []string{
	"micro.instructions", "micro.cycles", "atum.records", "atum.dilation_x",
	"kernel.spill_segments", "kernel.spill_lost", "trace.bytes",
	"sweep.pipeline_records_fed", "sweep.pipeline_dropped", "serve.arena_hit_ratio",
}

var countUnits = map[string]string{"atum.dilation_x": "x", "serve.arena_hit_ratio": "ratio"}

// moves names, for every per-layer metric, the end-to-end metric and
// workload a change to that layer should move; "none" marks exact
// counts that pin the simulation and must never move.
var moves = []struct{ metric, moves string }{
	{"vax.assemble_ms", "setup_s, every workload"},
	{"kernel.boot_ms", "op_ms_p50, capture-up and stream-smp"},
	{"kernel.run_ms", "sim_mips, capture-up and stream-smp"},
	{"kernel.run_untraced_ms", "sim_mips, capture-up (the interpreter alone)"},
	{"atum.host_dilation_x", "op_ms_p50, capture-up (collector cost)"},
	{"atum.dilation_x", "none: simulated cycles traced / untraced"},
	{"kernel.spill_close_ms", "op_ms_p50, capture-up"},
	{"trace.encode_ms.raw", "op_ms_p50, capture-up"},
	{"trace.encode_ms.flate", "op_ms_p50, capture-up"},
	{"trace.open_ms", "op_ms_p50, analyze-file"},
	{"trace.decode_mrec_per_s", "op_ms_p50, analyze-file"},
	{"trace.merge_ms", "op_ms_p50, stream-smp"},
	{"cache.ns_per_ref", "sim_mrefs_per_s, analyze-file"},
	{"cache.hierarchy_ns_per_ref", "sim_mrefs_per_s, analyze-file"},
	{"tlbsim.ns_per_ref", "sim_mrefs_per_s, analyze-file"},
	{"stackdist.ns_per_ref", "sim_mrefs_per_s, analyze-file"},
	{"sweep.pipeline_drain_ms", "op_ms_p50, stream-smp"},
	{"serve.analyze_ms_p50", "op_ms_p50 and op_ms_p90, serve-mixed"},
	{"serve.upload_ms_p50", "op_ms_p50 and op_ms_p90, serve-mixed"},
	{"serve.capture_ms_p50", "op_ms_p50 and op_ms_p90, serve-mixed"},
	{"serve.lint_ms_p50", "op_ms_p50 and op_ms_p90, serve-mixed"},
	{"serve.info_ms_p50", "op_ms_p50 and op_ms_p90, serve-mixed"},
	{"serve.arena_hit_ratio", "op_ms_p50, serve-mixed"},
	{"host.op_cpu_ms_p50", "diagnostic: program cost without preemption"},
	{"host.preempt_share", "diagnostic: share of op time off the CPU"},
	{"micro.instructions", "none"},
	{"micro.cycles", "none"},
	{"atum.records", "none"},
	{"kernel.spill_segments", "none"},
	{"kernel.spill_lost", "none: must stay 0"},
	{"trace.bytes", "none"},
	{"sweep.pipeline_records_fed", "none"},
	{"sweep.pipeline_dropped", "none: must stay 0"},
	{"bench.untraced_ops_per_s", "tracing overhead base"},
	{"bench.traced_ops_per_s", "tracing overhead"},
	{"bench.trace_overhead_x", "tracing overhead: untraced / traced op rate"},
	{"bench.ops_covered_share", "trace quality: share of ops whose child spans cover >= 0.95 of them"},
}

// writeLayerTable prints every per-layer metric beside what it should
// move.
func writeLayerTable(w io.Writer, m map[string]metric) {
	fmt.Fprintln(w, "per-layer metrics")
	for _, mv := range moves {
		v, ok := m[mv.metric]
		if !ok {
			fmt.Fprintf(w, "  %-28s %14s %-8s %s\n", mv.metric, "missing", "", mv.moves)
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", mv.metric, v.Value, v.Unit, mv.moves)
	}
}

// named returns the spans called name in the first source with any,
// and that source's workload.
func named(sources []layerSource, name string) ([]span, string) {
	for _, src := range sources {
		var out []span
		for _, s := range src.spans {
			if s.Name == name {
				out = append(out, s)
			}
		}
		if len(out) > 0 {
			return out, src.workload
		}
	}
	return nil, ""
}

func durMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// layerMetrics derives the span- and count-based per-layer metrics. A
// metric read from a fill workload is noted on standard error, so the
// reader can tell the run's own layers from borrowed ones.
func layerMetrics(sources []layerSource) map[string]metric {
	m := map[string]metric{}
	note := func(metricName, from string) {
		if from != sources[0].workload {
			fmt.Fprintf(os.Stderr, "perfbench: %s from %s ops\n", metricName, from)
		}
	}
	for _, sm := range spanMedians {
		if spans, from := named(sources, sm.span); spans != nil {
			m[sm.metric] = metric{median(durMS(spans)), "ms"}
			note(sm.metric, from)
		}
	}
	for _, sn := range spanNsPerRef {
		if spans, from := named(sources, sn.span); spans != nil {
			var ns, refs float64
			for _, s := range spans {
				ns += float64(s.dur())
				refs += float64(s.Work)
			}
			m[sn.metric] = metric{ns / refs, "ns/ref"}
			note(sn.metric, from)
		}
	}
	if spans, from := named(sources, "trace.arena"); spans != nil {
		var sec, recs float64
		for _, s := range spans {
			sec += float64(s.dur()) / 1e9
			recs += float64(s.Work)
		}
		m["trace.decode_mrec_per_s"] = metric{recs / sec / 1e6, "Mrec/s"}
		note("trace.decode_mrec_per_s", from)
	}
	// Host dilation compares traced and untraced runs of the same mix,
	// so both medians come from the workload that has the untraced lane.
	if untraced, from := named(sources, "kernel.run_untraced"); untraced != nil {
		for _, src := range sources {
			if src.workload != from {
				continue
			}
			traced, _ := named([]layerSource{src}, "kernel.run")
			m["atum.host_dilation_x"] = metric{median(durMS(traced)) / median(durMS(untraced)), "x"}
			note("atum.host_dilation_x", from)
		}
	}
	for _, name := range counted {
		for _, src := range sources {
			if v, ok := src.counts[name]; ok {
				unit := countUnits[name]
				if unit == "" {
					unit = "count"
				}
				m[name] = metric{v, unit}
				note(name, src.workload)
				break
			}
		}
	}
	return m
}
