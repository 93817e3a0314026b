#!/usr/bin/env python3
"""Repository benchmark for the ST-TCP simulator.

    python3 perfbench/run.py --workload echo_10k|upload_bulk|failover_1k|all \
        [--seed N] [--seconds S] [--trace 0|1] [--toy]

Builds perfbench_sim twice from ../src (auditor on, and auditor off for the
traced pass only) under .bench_build/perfbench, runs the workload, prints a
report and, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics of untraced runs of the default,
auditor-on build. --trace 1 reports the per-layer metrics of traced runs of
both builds. Exits 1 without a result line when the build fails, and with
"correct": false when a self-check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("echo_10k", "upload_bulk", "failover_1k")

# The end-to-end metrics every workload emits under --trace 0.
END_TO_END = ("setup_s", "request_rate", "goodput_MBps", "peak_rss_MB",
              "vlatency_p50_ms", "vgoodput_Mbps")

# Every end-to-end result a workload defines, printed in its report.
REPORT = {
    "echo_10k": ("setup_s", "connect_rate", "request_rate", "goodput_MBps", "peak_rss_MB",
                 "vlatency_p50_ms", "vlatency_p999_ms", "vgoodput_Mbps", "failed_share"),
    "upload_bulk": ("setup_s", "request_rate", "goodput_MBps", "peak_rss_MB",
                    "vlatency_p50_ms", "vgoodput_Mbps", "failed_share"),
    "failover_1k": ("setup_s", "request_rate", "goodput_MBps", "peak_rss_MB",
                    "vlatency_p50_ms", "vlatency_p999_ms", "vgoodput_Mbps", "detect_ms",
                    "takeover_ms", "recovery_p50_ms", "recovery_p99_ms", "failed_share"),
}

CLASSES = ("net.hub", "net.nic_filtered", "tcp.rx.client", "tcp.rx.primary", "tcp.rx.backup",
           "sttcp.ctl.primary", "sttcp.ctl.backup", "sttcp.timer", "sttcp.takeover",
           "tcp.timer", "bench.client")
BENCH_CLASS = "bench.client"

# Counts the auditor must not change: everything but allocations.
AUDIT_NEUTRAL_EXCLUDED = ("alloc.loop", "heap.bytes_per_conn")


def build(audit):
    """Configures and builds one auditor setting; returns the binary path."""
    tree = BUILD / ("audit-on" if audit else "audit-off")
    tmp = BUILD / "tmp"  # compiler temporaries stay inside the checkout
    for d in (tree, tmp):
        d.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(tree / "build.log", "w") as out:
        steps = []
        if not (tree / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release",
                          "-DSTTCP_AUDIT=" + ("ON" if audit else "OFF")])
        steps.append(["cmake", "--build", str(tree), "--target", "perfbench_sim", "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env).returncode != 0:
                print((tree / "build.log").read_text()[-4000:], file=sys.stderr)
                raise SystemExit(f"perfbench: build failed, see {tree / 'build.log'}")
    return tree / "perfbench_sim"


def run_sim(binary, workload, seed, seconds, mode, toy, plant=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--mode", mode]
    if mode == "trace":
        spans = BUILD / "spans" / f"{workload}-{binary.parent.name}.bin"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    if toy:
        cmd.append("--toy")
    if plant:
        cmd.append("--plant-wrong-byte")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {binary.name} printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", False):
        result["correct"] = False
        result["errors"].append(f"exit code {proc.returncode}")
    return result


def per_layer(on, off):
    """Per-layer metrics from the traced runs of the auditor-on and -off builds."""
    params = on["params"]
    ops = params["connections"] * params["rounds"]
    counts = on["counts"]
    loops = on["loops"]
    e2e = on["metrics"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    check_ns = check_allocs = program_ns = 0
    for cls in CLASSES:
        c, c_off = on["classes"][cls], off["classes"][cls]
        put(f"{cls}.ns_per_op", c["ns"] / ops, "ns/op")
        put(f"{cls}.allocs_per_op", c["allocs"] / ops, "allocs/op")
        put(f"{cls}.events_per_op", c["events"] / ops, "events/op")
        if cls != BENCH_CLASS:
            put(f"check.{cls}.ns_per_op", (c["ns"] - c_off["ns"]) / ops, "ns/op")
            check_ns += c["ns"] - c_off["ns"]
            check_allocs += c["allocs"] - c_off["allocs"]
            program_ns += c["ns"]

    put("sim.events_per_op", counts["sim.events"] / ops, "events/op")
    put("sim.peak_pending", counts["sim.peak_pending"], "count")
    put("sim.events_per_s", counts["sim.events"] / loops["untraced_s"], "1/s")

    frames = counts["net.hub.frames"]
    put("net.frames_per_op", frames / ops, "frames/op")
    put("net.frames_per_s", frames / loops["untraced_s"], "1/s")
    for host in ("client", "primary", "backup"):
        put(f"net.link.{host}.drops", counts[f"net.link.{host}.drops"], "count")
    nic_total = counts["net.nic.rx"] + counts["net.nic.filtered"]
    put("net.nic.filtered_share", counts["net.nic.filtered"] / nic_total if nic_total else 0,
        "ratio")

    put("tcp.retransmits_per_op", counts["tcp.retransmits"] / ops, "1/op")
    put("tcp.backup.suppressed_per_op", counts["tcp.backup.suppressed"] / ops, "1/op")
    put("tcp.failover.resume_p50_ms", e2e.get("resume_p50_ms", {"value": 0})["value"], "ms")
    put("tcp.failover.resume_p99_ms", e2e.get("resume_p99_ms", {"value": 0})["value"], "ms")

    acks = counts["sttcp.backup.acks"]
    put("sttcp.backup.acks_per_op", acks / ops, "1/op")
    put("sttcp.primary.heartbeats_per_op", counts["sttcp.primary.heartbeats"] / ops, "1/op")
    put("sttcp.ctl.delivered_share", counts["sttcp.primary.acks_received"] / acks if acks else 1,
        "ratio")
    datagrams = counts["sttcp.primary.datagrams"] + counts["sttcp.backup.datagrams"]
    put("sttcp.ctl.datagrams_per_segment", datagrams / counts["tcp.client.segments"], "ratio")
    put("sttcp.backup.gaps_per_op", counts["sttcp.backup.gaps"] / ops, "1/op")
    put("sttcp.primary.released_MB", counts["sttcp.primary.bytes_released"] / 1e6, "MB")
    put("sttcp.backups_declared_dead", counts["sttcp.backups_declared_dead"], "count")
    put("sttcp.failover.fence_ms", e2e.get("fence_ms", {"value": 0})["value"], "ms")

    put("check.ns_per_op", check_ns / ops, "ns/op")
    put("check.allocs_per_op", check_allocs / ops, "allocs/op")
    put("check.share", check_ns / program_ns if program_ns else 0, "ratio")

    put("alloc.per_frame", counts["alloc.loop"] / frames, "allocs/frame")
    put("mem.bytes_per_conn", counts["heap.bytes_per_conn"], "B/conn")
    put("trace.overhead", loops["traced_s"] / loops["untraced_s"], "ratio")
    put("trace.unattributed_share",
        (loops["traced_wall_s"] - loops["traced_span_s"]) / loops["traced_wall_s"], "ratio")
    return m


def audit_neutral_errors(on, off):
    """The auditor only checks: both builds must simulate the same events."""
    return [f"auditor-off build differs in {k}: {off['counts'][k]} vs {v}"
            for k, v in on["counts"].items()
            if k not in AUDIT_NEUTRAL_EXCLUDED and off["counts"].get(k) != v]


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(workload, args, binaries):
    """Returns (correct, attempted, failed, metrics) for one workload."""
    on_bin, off_bin = binaries
    if args.trace:
        half = args.seconds / 2
        on = run_sim(on_bin, workload, args.seed, half, "trace", args.toy, args.plant_wrong_byte)
        off = run_sim(off_bin, workload, args.seed, half, "trace", args.toy,
                      args.plant_wrong_byte)
        runs = (on, off)
        errors = on["errors"] + off["errors"]
        if on["correct"] and off["correct"]:
            errors += audit_neutral_errors(on, off)
            metrics = per_layer(on, off)
        else:
            metrics = {}
    else:
        on = run_sim(on_bin, workload, args.seed, args.seconds, "timed", args.toy,
                     args.plant_wrong_byte)
        runs = (on,)
        errors = on["errors"]
        metrics = {name: on["metrics"][name] for name in END_TO_END}

    print(f"== {workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}, "
          f"{sum(r['iterations'] for r in runs)} iterations)")
    print("   params: " + ", ".join(f"{k}={fmt(v)}" for k, v in on["params"].items()))
    if not args.trace:
        for name in REPORT[workload]:
            metric = on["metrics"][name]
            print(f"   {name:<18} {fmt(metric['value']):>14} {metric['unit']}")
    else:
        for name, metric in metrics.items():
            print(f"   {name:<34} {fmt(metric['value']):>14} {metric['unit']}")
    for e in errors:
        print(f"   SELF-CHECK FAILED: {e}")
    attempted = sum(r["planned_ops"] for r in runs)
    failed = sum(r["failed_ops"] for r in runs)
    return not errors, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tens of connections and KiB transfers (self-test size)")
    parser.add_argument("--plant-wrong-byte", action="store_true",
                        help="corrupt one response byte; the run must fail")
    args = parser.parse_args()

    binaries = (build(audit=True), build(audit=False))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ok, a, f, m = run_workload(workload, args, binaries)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
