#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload with tens of connections and KiB transfers, untraced
and traced, and checks that each metric BENCHMARK.json names is emitted with
its unit. Then plants one wrong response byte and checks that the verifier
fails the run. Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("echo_10k", "upload_bulk", "failover_1k")


def run(workload, trace, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--toy",
           "--seconds", "0.5", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=900)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(workload, trace)
            expect(proc.returncode == 0 and result["correct"],
                   f"{workload} trace={trace}: runs correct")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace}: result has exactly the four keys")
            metrics = result["metrics"]
            missing = [m["name"] for m in spec[key]
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            expect(not missing, f"{workload} trace={trace}: every {key} metric emitted "
                                f"with its unit{' (missing: ' + ', '.join(missing) + ')' if missing else ''}")
            expect(set(metrics) == {m["name"] for m in spec[key]},
                   f"{workload} trace={trace}: no metric beyond BENCHMARK.json")

    proc, result = run("echo_10k", 0, ("--plant-wrong-byte",))
    expect(proc.returncode != 0 and not result["correct"], "planted wrong byte fails the run")
    expect("response verification failed" in proc.stdout + proc.stderr,
           "planted wrong byte is reported by the verifier")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
