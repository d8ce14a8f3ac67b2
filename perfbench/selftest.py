"""Smoke test of the benchmark harness at tiny sizes (n = 5 or 6).

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It runs each workload's command line shrunk to n = 5 or 6, once untraced and
once traced, and checks that every run passes the gate and emits exactly the
metrics that BENCHMARK.json names, each with its unit.  It then checks that
the gate refuses a corrupted output and a nonzero exit code, and that a run
whose outputs all miss the recorded digest reports no timing.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import workloads
from run import invoke, measure
from workloads import ROOT, WORKLOADS, Gate

SMOKE_ARGV = {
    "report-sym": ("report", "--n", "5", "--format", "json"),
    "hasse-covers": ("hasse", "--n", "6", "--parabolic", "P2", "--covers", "--format", "json"),
    "cosets-walk": ("cosets", "--n", "6", "--parabolic", "P2"),
    "verify-oracle": ("verify", "--n-max", "6", "--format", "json"),
}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    smoke = {name: replace(WORKLOADS[name], argv=argv) for name, argv in SMOKE_ARGV.items()}
    for workload in smoke.values():
        for trace, want in wanted.items():
            label = f"{workload.name} (n<=6, trace {int(trace)})"
            result = measure(ROOT, workload, 0.1, trace)
            expect(result["correct"] and result["attempted"] >= 1, f"{label}: not correct: {result}")
            metrics = result["metrics"] or {}
            got = {name: m["unit"] for name, m in metrics.items()}
            expect(got == want, f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            expect(
                all(isinstance(m["value"], (int, float)) for m in metrics.values()),
                f"{label}: a metric value is not a number",
            )

    cosets = smoke["cosets-walk"]
    gate = Gate(ROOT, cosets)
    good = invoke(ROOT, ["-m", "orthoweyl", *cosets.argv], time.perf_counter() + 60)
    expect(gate.check(good.returncode, good.stdout) is None, "gate refused a correct output")
    corrupted = good.stdout.replace(b"s1", b"s2", 1)
    expect("sha256" in (gate.check(0, corrupted) or ""), "gate accepted a corrupted output")
    expect("exit code" in (gate.check(1, good.stdout) or ""), "gate accepted exit code 1")

    report = smoke["report-sym"]
    recorded = workloads.DIGESTS[report.key]
    workloads.DIGESTS[report.key] = {**recorded, "sha256": "0" * 64}
    try:
        result = measure(ROOT, report, 0.1, False)
    finally:
        workloads.DIGESTS[report.key] = recorded
    expect(
        not result["correct"] and result["failed"] == result["attempted"] and result["metrics"] is None,
        f"a run whose outputs all miss the digest still reported timings: {result}",
    )

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
