#!/usr/bin/env python3
"""Per-layer report for the soNUMA benchmark's traced runs (stdlib only).

A traced run (``perfbench/run.py --trace 1``) writes
``.bench_out/<workload>_seed<seed>.trace.json`` holding its untraced and
traced driver samples; the traced ones carry host spans and the pooled
OBS series. This module turns them into the per-layer metrics named in
``perfbench/README.md`` and prints one table per workload:

    python3 perfbench/report.py .bench_out/pagerank_n64_seed1.trace.json

Counts come from the untraced samples (sampling adds sampler events but
never changes a model statistic); OBS aggregates and spans come from the
traced ones; host times are medians over samples.
"""

import json
import re
import statistics
import sys

# Layer of each per-layer metric prefix, in report order.
LAYERS = ("sim", "mem", "fabric", "rmc", "node", "os", "api", "app",
          "trace")


def _sum(counters, pattern):
    rx = re.compile(pattern)
    return sum(v for k, v in counters.items() if rx.fullmatch(k))


def ratio(num, den):
    return num / den if den else 0.0


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def layer_metrics(untraced, traced):
    """Per-layer metrics as {name: (value, unit, base)}.

    ``base`` names the denominator of a ratio (with its value) or is
    empty for plain counts and times.
    """
    s = untraced[0]
    c = s["counters"]
    ops = s["ops"]
    obs = traced[0]["obs"]
    m = {}

    def put(name, value, unit, base=""):
        m[name] = (value, unit, base)

    # sim: engine work and host cost per event.
    run_s = _median(untraced, "run_s")
    put("sim.events", s["events"], "count")
    put("sim.events_per_op", ratio(s["events"], ops), "events/op",
        f"{ops} ops")
    put("sim.host_ns_per_event", ratio(run_s * 1e9, s["events"]),
        "ns/event", f"{s['events']} events, median run_s {run_s:.4f}")

    # mem: L1 (cores and RMC ports), L2 + directory, DRAM.
    l1_hits = _sum(c, r"l1\..*\.hits")
    l1_misses = _sum(c, r"l1\..*\.misses")
    l1 = l1_hits + l1_misses
    l2 = c.get("l2.hits", 0) + c.get("l2.misses", 0)
    rows = c.get("dram.rowHits", 0) + c.get("dram.rowMisses", 0)
    put("mem.l1_accesses", l1, "count")
    put("mem.l1_miss_ratio", ratio(l1_misses, l1), "ratio",
        f"{l1} L1 accesses")
    put("mem.l2_accesses", l2, "count")
    put("mem.l2_miss_ratio", ratio(c.get("l2.misses", 0), l2), "ratio",
        f"{l2} L2 accesses")
    put("mem.l2_evictions", c.get("l2.evictions", 0), "count")
    put("mem.c2c_transfers", c.get("l2.c2cTransfers", 0), "count")
    put("mem.probes", _sum(c, r"l1\..*\.probes"), "count")
    put("mem.dram_accesses", c.get("dram.reads", 0) + c.get("dram.writes", 0),
        "count")
    put("mem.dram_row_hit_ratio", ratio(c.get("dram.rowHits", 0), rows),
        "ratio", f"{rows} row activations")
    put("mem.dram_retries", c.get("l2.dramRetries", 0), "count")

    # fabric: messages from the NIs, drops, OBS link and eject series.
    msgs = c.get("ni.sent", 0)
    put("fabric.messages", msgs, "count")
    put("fabric.msgs_per_op", ratio(msgs, ops), "msgs/op", f"{ops} ops")
    put("fabric.dropped", s["fabric_dropped"], "count")
    put("fabric.link_util_mean", obs["link_util_mean"], "fraction",
        f"{obs['link_util_samples']} link samples")
    put("fabric.link_util_max", obs["link_util_max"], "fraction",
        f"{obs['link_util_samples']} link samples")
    put("fabric.link_qdepth_max", obs["link_qdepth_max"], "packets")
    put("fabric.eject_depth_max", obs["eject_depth_max"], "messages")

    # rmc pipeline: RGP -> fabric -> RRPP -> RCP, TLB/CT$ and MAQ.
    wq = c.get("rmc.rgp.wqEntries", 0)
    req = c.get("rmc.rgp.requestPackets", 0)
    tlb = c.get("rmc.tlb.hits", 0) + c.get("rmc.tlb.misses", 0)
    ct = c.get("rmc.ct.ctCacheHits", 0) + c.get("rmc.ct.ctCacheMisses", 0)
    put("rmc.wq_entries", wq, "count")
    put("rmc.request_packets", req, "count")
    put("rmc.rrpp_requests", c.get("rmc.rrpp.requests", 0), "count")
    put("rmc.completions", c.get("rmc.rcp.completions", 0), "count")
    put("rmc.doorbells_per_op", ratio(c.get("rmc.rgp.doorbells", 0), ops),
        "doorbells/op", f"{ops} ops")
    put("rmc.tlb_miss_ratio", ratio(c.get("rmc.tlb.misses", 0), tlb),
        "ratio", f"{tlb} TLB lookups")
    put("rmc.page_walks", c.get("rmc.walker.walks", 0), "count")
    put("rmc.ct_miss_ratio", ratio(c.get("rmc.ct.ctCacheMisses", 0), ct),
        "ratio", f"{ct} CT$ lookups")
    put("rmc.maq_stalls", c.get("rmc.maq.stalls", 0), "count")
    put("rmc.itt_occupancy_max", obs["itt_occupancy_max"], "transfers")

    # rmc reliability. A retransmit re-sends one transfer; every
    # transfer on the drop workload is a single line.
    retx = c.get("rmc.retransmits", 0)
    put("rmc.retransmits", retx, "count")
    put("rmc.dup_suppressed", c.get("rmc.rrpp.dupSuppressed", 0), "count")
    put("rmc.unrecoverable", c.get("rmc.unrecoverable", 0), "count")
    put("rmc.first_try_ratio", ratio(req - retx, req), "ratio",
        f"{req} request packets")

    # node + os: cluster build, session/QP opens, memory per node.
    rss_mb = _median(untraced, "peak_rss_kb") / 1024.0
    put("node.build_s", _median(untraced, "build_s"), "s")
    put("os.sessions_s", _median(untraced, "sessions_s"), "s")
    put("node.rss_per_node_mb", rss_mb / s["nodes"], "MB",
        f"{rss_mb:.1f} MB over {s['nodes']} nodes")

    # api: what the Workload runtime adds around the bodies.
    rrpp = c.get("rmc.rrpp.requests", 0)
    elapsed = s["workload_elapsed_ticks"]
    put("api.barrier_requests", rrpp - s["body_requests"], "count",
        f"{rrpp} RRPP requests - {s['body_requests']} posted by bodies")
    put("api.barrier_sim_frac",
        max(0.0, 1.0 - ratio(s["body_span_ticks"], elapsed)), "ratio",
        f"{elapsed / s['ticks_per_ns']:.0f} simulated ns region")

    # app: PageRank graph build/partition/install and rank verification;
    # the other workloads have no app layer.
    is_app = s["workload"] == "pagerank_n64"
    put("app.install_s",
        statistics.median(u["inputs_s"] + u["install_s"] for u in untraced)
        if is_app else 0.0, "s")
    put("app.verify_s", _median(untraced, "verify_s") if is_app else 0.0,
        "s")

    # Tracing overhead: the traced samples' run_s against the untraced.
    traced_run = _median(traced, "run_s")
    put("trace.run_overhead", ratio(traced_run, run_s) - 1.0, "ratio",
        f"traced run_s {traced_run:.4f} vs untraced {run_s:.4f}")
    return m


def span_table(traced):
    """Median duration and self time per span name over traced samples."""
    per_name = {}
    for t in traced:
        spans = t["spans"]
        child = {}
        for sp in spans:
            if sp["parent"] is not None:
                child[sp["parent"]] = (child.get(sp["parent"], 0.0) +
                                       sp["end"] - sp["start"])
        for sp in spans:
            dur = sp["end"] - sp["start"]
            own = dur - child.get(sp["id"], 0.0)
            parent = (spans[sp["parent"]]["name"]
                      if sp["parent"] is not None else "")
            per_name.setdefault(sp["name"], (parent, [], []))
            per_name[sp["name"]][1].append(dur)
            per_name[sp["name"]][2].append(own)
    return [(name, parent, statistics.median(d), statistics.median(o),
             len(d)) for name, (parent, d, o) in per_name.items()]


def print_report(workload, untraced, traced):
    metrics = layer_metrics(untraced, traced)
    s = untraced[0]
    print(f"== per-layer report: {workload} (seed {s['seed']}, "
          f"{len(untraced)} untraced + {len(traced)} traced samples, "
          f"{s['ops']} ops) ==")
    print(f"{'metric':<26} {'value':>16} {'unit':<13} base")
    for layer in LAYERS:
        for name, (value, unit, base) in metrics.items():
            if name.split(".")[0] != layer:
                continue
            text = (f"{value:.6g}" if isinstance(value, float)
                    else str(value))
            print(f"{name:<26} {text:>16} {unit:<13} {base}")
    print(f"{'span':<16} {'parent':<8} {'median_s':>12} {'self_s':>12} n")
    for name, parent, dur, own, n in span_table(traced):
        print(f"{name:<16} {parent:<8} {dur:>12.6f} {own:>12.6f} {n}")
    obs = traced[0]["obs"]
    print(f"OBS: {obs['series']} series, {obs['samples']} samples, "
          f"{obs['samples_overwritten']} overwritten; period "
          f"{traced[0]['obs_period_ns']} ns")
    return metrics


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        doc = json.load(f)
    traced = [dict(t["sample"], spans=t["spans"],
                   obs_period_ns=t["obs_period_ns"]) for t in doc["traced"]]
    print_report(doc["workload"], doc["untraced"], traced)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
