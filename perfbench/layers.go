package main

// Per-layer metrics of -trace 1 runs. A traced run makes two passes over
// the same generated inputs: an untraced one (pepcd for n4-churn, whose
// stats line gives the slice counters) and a traced one (the in-process
// replica, or core-250k's own loop with spans). The
// traced pass's spans give each layer's self time; both passes'
// end-to-end numbers are reported side by side, so the tracing overhead
// shows.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"pepc/internal/gtp"
	"pepc/internal/pkt"
)

// layerUnits lists every per-layer metric with its unit; a traced run
// reports them all, 0 where its workload does not exercise the layer.
var layerUnits = map[string]string{
	"core.steer_ns_per_pkt":    "ns",
	"core.uplink_ns_per_pkt":   "ns",
	"core.downlink_ns_per_pkt": "ns",
	"core.sync_ns_per_call":    "ns",
	"core.forwarded":           "count",
	"core.dropped":             "count",
	"core.missed":              "count",
	"gtp.parse_ns_per_pkt":     "ns",
	"gtp.encap_ns_per_pkt":     "ns",
	"core.drain_us_per_event":  "us",
	"core.events_per_drain":    "count",
	"core.attach_us":           "us",
	"hss.handle_us":            "us",
	"pcrf.handle_us":           "us",
	"proxy.calls_per_attach":   "count",
	"core.upf_handle_us":       "us",
	"core.upf_flush_us":        "us",
	"core.upf_msgs_per_flush":  "count",
	"pfcp.establish_us_p50":    "us",
	"pfcp.modify_us_p50":       "us",
	"pfcp.delete_us_p50":       "us",
	"pfcp.retransmits":         "count",
	"runtime.gc_pause_ms":      "ms",
	"runtime.heap_live_mb":     "MB",
	"untraced.ops_per_s":       "1/s",
	"untraced.lat_p50_us":      "us",
	"untraced.lat_p99_us":      "us",
	"traced.ops_per_s":         "1/s",
	"traced.lat_p50_us":        "us",
	"traced.lat_p99_us":        "us",
	"trace.spans":              "count",
	"trace.untraced_pct":       "%",
}

// layerNames is every per-layer metric, sorted.
func layerNames() []string {
	var n []string
	for k := range layerUnits {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// activeTracer is the tracer of the pass being traced; generator loops
// record their own spans (PFCP transactions, probes) into it.
var activeTracer *tracer

func beginTrace() *tracer {
	activeTracer = newTracer()
	return activeTracer
}

func endTrace() { activeTracer = nil }

// tracedOutcome starts a traced run's outcome: operation counts of both
// passes, their end-to-end numbers side by side, the span file written
// and each loop's self-time check.
func tracedOutcome(cfg config, tr *tracer, u, t *outcome) *outcome {
	out := newOutcome()
	out.attempted = u.attempted + t.attempted
	out.failed = u.failed + t.failed
	out.faults = append(append(out.faults, u.faults...), t.faults...)
	for _, m := range []string{"ops_per_s", "lat_p50_us", "lat_p99_us"} {
		out.layer("untraced."+m, u.e2e[m].Value, u.e2e[m].Unit)
		out.layer("traced."+m, t.e2e[m].Value, t.e2e[m].Unit)
	}
	logf("%s tracing overhead: ops_per_s %.4g untraced, %.4g traced; lat_p50_us %.4g / %.4g; lat_p99_us %.4g / %.4g",
		cfg.workload, u.e2e["ops_per_s"].Value, t.e2e["ops_per_s"].Value,
		u.e2e["lat_p50_us"].Value, t.e2e["lat_p50_us"].Value, u.e2e["lat_p99_us"].Value, t.e2e["lat_p99_us"].Value)
	var spans int
	for _, l := range tr.loops {
		spans += l.n
	}
	out.layer("trace.spans", float64(spans), "count")
	path, err := tr.write(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.csv.gz", cfg.workload, cfg.seed))
	if err != nil {
		out.fault("writing spans: %v", err)
	} else {
		logf("%d spans written to %s", spans, path)
	}
	return out
}

// layerView is the aggregate of a traced pass's spans.
type layerView struct {
	aggs map[string]*layerAgg
}

// view aggregates tr's spans and checks, for each loop, that the spans
// under its root account for its wall time; an untraced stretch longer
// than untracedTolerance makes the run incorrect.
func view(out *outcome, tr *tracer) *layerView {
	aggs, problems, worst := tr.aggregate()
	for _, p := range problems {
		out.fault("trace self-check: %s", p)
	}
	out.layer("trace.untraced_pct", worst, "%")
	return &layerView{aggs: aggs}
}

// get returns one span name's aggregate (empty when absent).
func (v *layerView) get(name string) *layerAgg {
	if a := v.aggs[name]; a != nil {
		return a
	}
	return &layerAgg{}
}

// dataPathLayers reports the per-packet stage costs.
func dataPathLayers(out *outcome, v *layerView) {
	out.layer("core.steer_ns_per_pkt", v.get("core.steer").perUnitNs(), "ns")
	out.layer("core.uplink_ns_per_pkt", v.get("core.uplink").perUnitNs(), "ns")
	out.layer("core.downlink_ns_per_pkt", v.get("core.downlink").perUnitNs(), "ns")
	out.layer("core.sync_ns_per_call", v.get("core.sync").perCallUs()*1e3, "ns")
}

// backendLayers reports the Diameter backends per request and the
// requests one attach costs.
func backendLayers(out *outcome, v *layerView, attaches int64) {
	h, p := v.get("hss.handle"), v.get("pcrf.handle")
	out.layer("hss.handle_us", h.perCallUs(), "us")
	out.layer("pcrf.handle_us", p.perCallUs(), "us")
	if attaches > 0 {
		out.layer("proxy.calls_per_attach", float64(h.calls+p.calls)/float64(attaches), "count")
	}
}

func n4Layers(out *outcome, tr *tracer, u, t *n4Pass) {
	v := view(out, tr)
	out.layer("core.forwarded", float64(u.stats.forwarded), "count")
	out.layer("core.dropped", float64(u.stats.dropped), "count")
	out.layer("core.missed", float64(u.stats.missed), "count")
	h, f := v.get("core.upf_handle"), v.get("core.upf_flush")
	out.layer("core.upf_handle_us", h.perCallUs(), "us")
	out.layer("core.upf_flush_us", f.perCallUs(), "us")
	if f.calls > 0 {
		out.layer("core.upf_msgs_per_flush", float64(f.units)/float64(f.calls), "count")
	}
	out.layer("pfcp.establish_us_p50", v.get("pfcp.establish").p50Us(), "us")
	out.layer("pfcp.modify_us_p50", v.get("pfcp.modify").p50Us(), "us")
	out.layer("pfcp.delete_us_p50", v.get("pfcp.delete").p50Us(), "us")
	out.layer("pfcp.retransmits", float64(u.r.retransmits), "count")
}

func coreLayers(out *outcome, tr *tracer, u, t *corePass) {
	v := view(out, tr)
	dataPathLayers(out, v)
	d := v.get("core.drain")
	if d.units > 0 {
		out.layer("core.drain_us_per_event", float64(d.self)/float64(d.units)/1e3, "us")
		out.layer("core.events_per_drain", float64(d.units)/float64(d.calls), "count")
	}
	a := v.get("core.attach")
	if a.calls > 0 {
		out.layer("core.attach_us", float64(a.total)/float64(a.calls)/1e3, "us")
	}
	backendLayers(out, v, a.calls)
	out.layer("core.forwarded", float64(u.r.forwarded), "count")
	out.layer("core.dropped", float64(u.r.dropped), "count")
	out.layer("core.missed", float64(u.r.missed), "count")
	out.layer("runtime.gc_pause_ms", u.r.gcPauseMs, "ms")
	out.layer("runtime.heap_live_mb", u.r.heapLiveMB, "MB")
	var ups, downs [][]byte
	in := t.cl.in
	for i := range in.wire {
		if in.up[i] {
			ups = append(ups, in.wire[i])
		} else {
			downs = append(downs, in.inner[i])
		}
	}
	gtpLayers(out, ups, downs)
}

// gtpLayers times gtp.ParseOuter on the workload's uplink envelopes and
// EncapTemplate.Apply (undone by TrimFront) on its downlink packets,
// each alone in a loop.
func gtpLayers(out *outcome, ups, downs [][]byte) {
	const rounds = 4
	if len(ups) > 0 {
		t := time.Now()
		var sink uint32
		for r := 0; r < rounds; r++ {
			for _, w := range ups {
				teid, _, _ := gtp.ParseOuter(w)
				sink += teid
			}
		}
		out.layer("gtp.parse_ns_per_pkt", float64(time.Since(t))/float64(rounds*len(ups)), "ns")
		runtime.KeepAlive(sink)
	}
	if len(downs) > 0 {
		var tmpl gtp.EncapTemplate
		tmpl.Init(0x0100_0001, ip4(172, 16, 0, 1), ip4(192, 168, 50, 1))
		bufs := make([]*pkt.Buf, len(downs))
		for i, d := range downs {
			bufs[i] = pkt.NewBuf(pkt.DefaultBufSize, pkt.DefaultHeadroom)
			bufs[i].SetBytes(d)
		}
		t := time.Now()
		for r := 0; r < rounds; r++ {
			for _, b := range bufs {
				tmpl.Apply(b)
				b.TrimFront(gtp.EncapOverhead)
			}
		}
		out.layer("gtp.encap_ns_per_pkt", float64(time.Since(t))/float64(rounds*len(downs)), "ns")
	}
}
