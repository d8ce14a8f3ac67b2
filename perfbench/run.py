"""orthoweyl benchmark: fixed CLI workloads, each timed as a fresh process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload report-sym --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics.  One client runs the
workload's command line (``python -m orthoweyl ...`` with ``PYTHONPATH=src``)
as a child process in a closed loop, one child at a time, starting a new one
while it should still end within ``--seconds``.  Every child is a fresh
interpreter, so the package's caches start empty as they do for a user.  CPU
time and peak RSS come from that child's own rusage (``os.wait4``), not from
``RUSAGE_CHILDREN``, whose ``ru_maxrss`` is a running maximum over every
child so far.  ``setup_s`` is the median CPU time of fresh
``python -c "import orthoweyl"`` processes, measured apart from the commands
so that work moved into import shows.  Wall times are printed on the summary
line.

``--trace 1`` measures the per-layer metrics: it alternates untraced and
traced in-process repetitions of ``cli.main(argv)`` (see ``spans.py``) for
``--seconds``, and probes interpreter start and ``import`` with
``python -X importtime``.

Every output, traced or not, must pass the gate in ``workloads.py``.  A
failed invocation counts in ``failed`` and never yields a timing sample.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The command lines take no random input, so
``--seed`` changes nothing they run; it is accepted so that every run of the
benchmark has the same interface, and printed with the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from spans import LAYER_METRICS, InProcess, Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, Gate, Workload

#: End-to-end metrics and their units.  They are CPU times and memory: on a
#: shared host wall times swing with the neighbours' load (see README.md),
#: so wall times are printed on the summary line instead.
END_TO_END = {
    "setup_s": "s",
    "cmd_cpu_s.tail": "s",
    "peak_rss_mib": "MiB",
}

#: Least number of fresh-import probes per run; their median CPU time is ``setup_s``.
SETUP_PROBES = 7
#: Interpreter-start and ``-X importtime`` probes per traced run.
IMPORT_PROBES = 5
#: A run must end within this many seconds; a child still running then is killed.
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Invocation:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mib: float


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUTF8"] = "1"
    return env


def invoke(root: Path, args: list[str], deadline: float) -> Invocation:
    """Run ``python <args>`` in ``root`` and reap it with ``os.wait4``.

    The child is killed if it is still running at ``deadline``
    (a ``time.perf_counter`` value) or if this process is interrupted.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, *args],
        cwd=root,
        env=child_env(root),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.daemon = True
        killer.start()
        try:
            errors: list[bytes] = []
            drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()), daemon=True)
            drain.start()
            out = proc.stdout.read()
            drain.join()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            raise
        finally:
            killer.cancel()
    return Invocation(
        proc.returncode,
        out,
        errors[0],
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # Linux reports KiB
    )


def probe(root: Path, args: list[str], count: int, deadline: float) -> list[Invocation]:
    """``count`` fresh ``python <args>`` processes, each of which must succeed."""
    runs = []
    for _ in range(count):
        inv = invoke(root, args, deadline)
        if inv.returncode != 0:
            raise RuntimeError(f"python {' '.join(args)} failed: {inv.stderr.decode(errors='replace')}")
        runs.append(inv)
    return runs


def report_failure(workload: Workload, reason: str, stderr: bytes = b"") -> None:
    print(f"{workload.name}: invocation failed: {reason}", file=sys.stderr)
    if stderr:
        print(stderr.decode(errors="replace")[-2000:], file=sys.stderr)


def end_to_end(root: Path, workload: Workload, seconds: float, deadline: float) -> dict:
    gate = Gate(root, workload)
    import_args = ["-c", "import orthoweyl"]
    probe(root, import_args, 1, deadline)  # writes the bytecode caches; untimed

    # One import probe follows each command, so that set-up and commands are
    # sampled across the same stretch of time on a shared host.
    setup: list[Invocation] = []
    samples: list[Invocation] = []
    cycles: list[float] = []
    attempted = failed = 0
    loop_start = time.perf_counter()
    while not cycles or time.perf_counter() - loop_start + median(cycles) <= seconds:
        cycle_start = time.perf_counter()
        attempted += 1
        inv = invoke(root, ["-m", "orthoweyl", *workload.argv], deadline)
        reason = gate.check(inv.returncode, inv.stdout)
        if reason is None:
            samples.append(inv)
        else:
            failed += 1
            report_failure(workload, reason, inv.stderr)
        setup += probe(root, import_args, 1, deadline)
        cycles.append(time.perf_counter() - cycle_start)
    setup += probe(root, import_args, max(0, SETUP_PROBES - len(setup)), deadline)
    if not samples:
        return {"attempted": attempted, "failed": failed, "metrics": None}

    walls = [s.wall_s for s in samples]
    cpus = [s.cpu_s for s in samples]
    values = {
        "setup_s": median(inv.cpu_s for inv in setup),
        "cmd_cpu_s.tail": max(cpus),
        "peak_rss_mib": median(s.peak_rss_mib for s in samples),
    }
    # The highest percentile with ten samples beyond it needs more samples than
    # a run holds (with 11 to 20 it falls between the minimum and the median),
    # so the tail is the maximum, p100.
    print(
        f"{workload.name}: {len(samples)} samples of `orthoweyl {workload.key}`: "
        f"cmd_s.p50 {median(walls):.4f} s, cmd_s.tail (p100) {max(walls):.4f} s, "
        f"cmd_cpu_s.p50 {median(cpus):.4f} s, cmd_cpu_s.tail (p100) {max(cpus):.4f} s, "
        f"peak_rss_mib {values['peak_rss_mib']:.2f} MiB, "
        f"fail_ratio {failed}/{attempted} = {failed / attempted:g}; "
        f"{len(setup)} imports: setup_s {values['setup_s']:.4f} s CPU, "
        f"{median(inv.wall_s for inv in setup):.4f} s wall"
    )
    print(f"{workload.name}: command walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def import_times(root: Path, deadline: float) -> dict[str, float]:
    """Median cumulative import seconds of orthoweyl and numpy, from ``-X importtime``."""
    found: dict[str, list[float]] = {"orthoweyl": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        inv = invoke(root, ["-X", "importtime", "-c", "import orthoweyl"], deadline)
        if inv.returncode != 0:
            raise RuntimeError(f"import orthoweyl failed: {inv.stderr.decode(errors='replace')}")
        # Lines read "import time: <self us> | <cumulative us> | <indented name>".
        for line in inv.stderr.decode().splitlines():
            match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if match and match.group(2) in found:
                found[match.group(2)].append(int(match.group(1)) / 1e6)
    return {name: median(values) if values else 0.0 for name, values in found.items()}


def traced(root: Path, workload: Workload, seconds: float, deadline: float) -> dict:
    gate = Gate(root, workload)
    starts = [inv.wall_s for inv in probe(root, ["-c", "pass"], IMPORT_PROBES, deadline)]
    imports = import_times(root, deadline)
    runner = InProcess(root)
    for site in runner.missing:
        print(f"note: {site} does not exist; its span is not recorded", file=sys.stderr)

    plain_walls: list[float] = []
    traced_walls: list[float] = []
    runs: list[dict[str, float]] = []
    attempted = failed = 0
    cycles: list[float] = []
    loop_start = time.perf_counter()
    while not cycles or time.perf_counter() - loop_start + median(cycles) <= seconds:
        cycle_start = time.perf_counter()
        attempted += 2
        code, plain_out, wall = runner.run(workload.argv)
        reason = gate.check(code, plain_out)
        if reason is None:
            plain_walls.append(wall)
        else:
            failed += 1
            report_failure(workload, f"untraced in-process run: {reason}")
        tracer = Tracer()
        code, out, wall = runner.run(workload.argv, tracer)
        reason = gate.check(code, out)
        if reason is None and out != plain_out:
            reason = "traced stdout differs from untraced stdout"
        if reason is None:
            traced_walls.append(wall)
            runs.append(layer_metrics(tracer, out, workload.focus))
        else:
            failed += 1
            report_failure(workload, f"traced in-process run: {reason}")
        cycles.append(time.perf_counter() - cycle_start)
    if not runs or not plain_walls:
        return {"attempted": attempted, "failed": failed, "metrics": None}

    values = {name: median(run[name] for run in runs) for name in runs[0]}
    values["interp.start_s"] = median(starts)
    values["import.orthoweyl_s"] = imports["orthoweyl"]
    values["import.numpy_s"] = imports["numpy"]
    values["trace.overhead_ratio"] = median(traced_walls) / median(plain_walls)
    print(
        f"{workload.name}: {len(runs)} traced and {len(plain_walls)} untraced in-process runs "
        f"of `orthoweyl {workload.key}`; focus {'+'.join(workload.focus)} "
        f"= {values['focus.share']:.3f} of cli.main"
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()},
    }


def measure(root: Path, workload: Workload, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object, with ``correct`` set."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    result = (traced if trace else end_to_end)(root, workload, seconds, deadline)
    return {"correct": result["failed"] == 0, **result}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Exit through the normal path on SIGTERM, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "orthoweyl" / "__init__.py").is_file():
        print(f"error: no orthoweyl sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"{workload.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    result = measure(ROOT, workload, args.seconds, bool(args.trace))
    if result["metrics"] is None:
        print(f"error: no invocation of {workload.name} passed the gate", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
