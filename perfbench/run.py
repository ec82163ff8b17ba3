#!/usr/bin/env python3
"""soNUMA benchmark: four closed-loop workloads through the public API.

    python3 perfbench/run.py --workload remote_read_2n --seed 1 \\
        --seconds 10 --trace 0

Builds perfbench/driver.cc (and the library from ../src) into
.bench_build/perfbench, then runs one fresh driver process per sample
for --seconds (at least two samples). With --trace 0 it
prints every end-to-end metric with its unit and sample count; with
--trace 1 it alternates untraced and traced samples (host spans plus
read-only OBS sampling) and prints the per-layer report of
perfbench/report.py. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed output check
makes the command exit 1; a failed build exits 2 without a result.

Workloads, metrics and the layer map are described in
perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
FIG7_TXT = os.path.join(ROOT, "BENCH_fig7_remote_read.txt")

sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, HERE)
import report  # noqa: E402  (sibling module, stdlib only)

WORKLOADS = ("remote_read_2n", "pagerank_n64", "uniform_n256",
             "drop_recovery_n64")
MIN_SAMPLES = 2  # untraced; a traced run takes at least one pair
SAMPLE_TIMEOUT_S = 170
# OBS samples per series over a traced run (the driver keeps 1024 slots).
OBS_SAMPLES = 1000
PAPER_READ64_NS = 300.0
# End-to-end metrics in the result JSON (BENCHMARK.json "end_to_end").
# The latencies, op_fail_ratio and sim_read64_ns are printed but not
# gated; perfbench/README.md says why.
GATED = ("setup_s", "run_s", "peak_rss_mb", "sim_mops")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build incrementally; None on failure."""
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    env = dict(os.environ, TMPDIR=tmp)
    try:
        os.makedirs(tmp, exist_ok=True)
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                        str(min(4, os.cpu_count() or 1))],
                       check=True, stdout=sys.stderr, env=env)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return None
    return os.path.join(BUILD_DIR, "perfbench_driver")


def run_sample(binary, args, trace_path=None, obs_period_ns=0):
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--size={args.size}"]
    if trace_path:
        cmd += [f"--obs-period-ns={obs_period_ns}",
                f"--trace-out={trace_path}"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=SAMPLE_TIMEOUT_S, check=False)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"driver exited {p.returncode} with no output")
    sample = json.loads(lines[-1])
    sample["exit_code"] = p.returncode
    if trace_path:
        with open(trace_path, encoding="utf-8") as f:
            doc = json.load(f)
        os.remove(trace_path)
        sample.update(spans=doc["spans"], obs_period_ns=obs_period_ns)
    return sample


def sample_loop(seconds, take, minimum):
    """Call take() while the next call should end within @p seconds,
    and at least @p minimum times."""
    start = time.monotonic()
    out, longest = [], 0.0
    while len(out) < minimum or \
            time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        out.append(take())
        longest = max(longest, time.monotonic() - t0)
    return out


def end_to_end(samples):
    """All eight end-to-end metrics: {name: (value, unit, count note)}."""
    s = samples[0]
    n = len(samples)
    region_ns = s["region_ticks"] / s["ticks_per_ns"]
    m = {
        "setup_s": (statistics.median(x["setup_s"] for x in samples), "s",
                    f"median of {n} samples"),
        "run_s": (statistics.median(x["run_s"] for x in samples), "s",
                  f"median of {n} samples"),
        "peak_rss_mb": (statistics.median(x["peak_rss_kb"]
                                          for x in samples) / 1024.0, "MB",
                        f"median of {n} processes"),
        "sim_mops": (s["ops"] / region_ns * 1e3, "Mop/sim_s",
                     f"{s['ops']} ops / {region_ns:.1f} simulated ns"),
        "sim_lat_p50_ns": (s["lat_p50_ns"], "ns",
                           f"{s['lat_samples']} ops, {s['lat_source']}"),
        "sim_lat_p99_ns": (s["lat_p99_ns"], "ns",
                           f"{s['lat_samples']} ops, {s['lat_source']}"),
        "op_fail_ratio": (report.ratio(s["failed"], s["ops"]), "ratio",
                          f"{s['failed']} failed / {s['ops']} ops"),
    }
    if "sim_read64_ns" in s["extra"]:
        r64 = s["extra"]["sim_read64_ns"]
        _, dram = fig7_reference()
        m["sim_read64_ns"] = (
            r64, "ns",
            f"{s['extra']['read64_reads']:.0f} reads; paper ~{PAPER_READ64_NS:.0f} ns "
            f"(error {100 * (r64 / PAPER_READ64_NS - 1):+.1f}%); local DRAM "
            f"{dram:.1f} ns, ratio {r64 / dram:.2f}x (paper: within 4x)")
    return m


def host_usage(samples):
    """Process CPU time and minor faults beside the wall times: CPU time
    that tracks run_s means a slow sample ran slower on the CPU rather
    than waiting for it; minor faults count the pages first touched."""
    def med(key):
        return statistics.median(x[key] for x in samples)

    return (f"host (median of {len(samples)} samples): "
            f"setup {med('setup_s'):.4f} s wall, {med('setup_cpu_s'):.4f} s "
            f"CPU, {med('setup_minflt'):.0f} minor faults; "
            f"run {med('run_s'):.4f} s wall, {med('run_cpu_s'):.4f} s CPU, "
            f"{med('run_minflt'):.0f} minor faults")


def fig7_reference():
    """(64 B one-sided latency as printed, local DRAM load ns) from the
    simulated-hardware block of BENCH_fig7_remote_read.txt."""
    read64 = dram = None
    with open(FIG7_TXT, encoding="utf-8") as f:
        for line in f:
            if line.startswith("# local DRAM load:") and dram is None:
                dram = float(line.split(":")[1].split()[0])
            cols = line.split()
            if cols and cols[0] == "64" and read64 is None:
                read64 = cols[1]
    if read64 is None or dram is None:
        raise ValueError(f"no 64 B row or local DRAM line in {FIG7_TXT}")
    return read64, dram


def load_digests():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)


def output_checks(args, untraced, traced):
    """[(name, ok, detail)] over every sample of this run."""
    samples = untraced + traced
    per_sample = {"driver_exit_0": [s["exit_code"] == 0 for s in samples]}
    for s in samples:
        for name, ok in s["checks"].items():
            per_sample.setdefault(name, []).append(ok)
    checks = [(name, all(oks), f"{oks.count(True)}/{len(samples)} samples")
              for name, oks in per_sample.items()]
    digests = {s["digest"] for s in samples}
    checks.append(("digest_same_every_sample", len(digests) == 1,
                   " ".join(sorted(digests))))
    if traced:
        checks.append(("traced_digest_eq_untraced",
                       traced[0]["digest"] == untraced[0]["digest"],
                       f"{traced[0]['digest']} vs {untraced[0]['digest']}"))
    expected = load_digests().get(args.workload, {}).get(str(args.seed))
    if args.size == "full" and expected is not None and \
            not args.record_digests:
        checks.append(("digest_eq_expected",
                       untraced[0]["digest"] == expected,
                       f"expected {expected}"))
    if args.workload == "remote_read_2n" and args.size == "full":
        got = f"{untraced[0]['extra']['sim_read64_ns']:.1f}"
        try:
            want, _ = fig7_reference()
        except (OSError, ValueError) as e:
            want = f"unreadable ({e})"
        checks.append(("read64_eq_fig7_row", got == want,
                       f"{got} ns vs BENCH_fig7_remote_read.txt {want}"))
    return checks


def record_digest(args, digest):
    doc = load_digests()
    doc.setdefault(args.workload, {})[str(args.seed)] = digest
    doc[args.workload] = dict(sorted(doc[args.workload].items(),
                                     key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's shrunken workloads")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this seed's digest in perfbench/digests.json"
                         " (a declared model change)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2

    traced = []
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}_seed{args.seed}")
        period = []
        untraced = []

        def pair():
            u = run_sample(binary, args)
            untraced.append(u)
            if not period:
                final_ns = u["final_tick"] / u["ticks_per_ns"]
                period.append(max(1, math.ceil(final_ns / OBS_SAMPLES)))
            return run_sample(binary, args, stem + ".sample.json", period[0])

        traced = sample_loop(args.seconds, pair, 1)
        with open(stem + ".trace.json", "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "untraced": untraced,
                       "traced": [{"sample": {k: v for k, v in t.items()
                                              if k not in ("spans",
                                                           "obs_period_ns")},
                                   "spans": t["spans"],
                                   "obs_period_ns": t["obs_period_ns"]}
                                  for t in traced]}, f)
    else:
        untraced = sample_loop(args.seconds,
                               lambda: run_sample(binary, args), MIN_SAMPLES)

    s = untraced[0]
    print(f"== {args.workload} seed {args.seed} ({args.size}): "
          f"{s['nodes']} nodes, closed loop (<= qp_depth reads outstanding "
          f"per node), single-threaded ==")
    print(f"caches: {s['cache_state']}")
    if args.trace:
        metrics = report.print_report(args.workload, untraced, traced)
        out_metrics = metrics
    else:
        metrics = end_to_end(untraced)
        print(f"{'metric':<16} {'value':>14} {'unit':<10} samples")
        for name, (value, unit, note) in metrics.items():
            print(f"{name:<16} {value:>14.6g} {unit:<10} {note}")
        out_metrics = {k: v for k, v in metrics.items() if k in GATED}
    print(host_usage(untraced))
    print(f"digest {s['digest']} (stats dump + simulated region + end tick)")

    checks = output_checks(args, untraced, traced)
    failed_checks = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    if args.record_digests and args.size == "full" and not failed_checks:
        record_digest(args, s["digest"])

    samples = untraced + traced
    result = {
        "correct": not failed_checks,
        "attempted": sum(x["ops"] for x in samples),
        "failed": sum(x["failed"] for x in samples),
        "metrics": {k: {"value": v[0], "unit": v[1]}
                    for k, v in out_metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: sample failed: {e!r}")
        sys.exit(1)
