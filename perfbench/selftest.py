"""Self-test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload it makes a minimal-length run with tracing off and
one with tracing on, and asserts that the last stdout line has exactly
the result keys, that every metric ``BENCHMARK.json`` names is emitted
with its unit (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``), that end-to-end values are positive, and that the
run's checks passed.  The traced run reuses the untraced run's seed, so
on the deterministic workloads it must also repeat the simulated-I/O
fingerprint exactly.  Last, it runs the command in a directory holding
only ``BENCHMARK.json`` and the benchmark's files and expects a failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
DETERMINISTIC = ("sharded-ingest", "single-node")


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, check=False)
    proc.left_behind = leftovers()
    return proc


def leftovers() -> list[int]:
    """Processes a finished run did not wait for, running or not.  This
    process adopts orphans (see ``workloads.adopt_orphans``), so they
    show up as its descendants; they are stopped and reaped here."""
    from workloads import _descendants, stop_descendants

    left = _descendants(os.getpid())
    stop_descendants()
    return left


def check_result(proc, expected: dict[str, str], positive: bool
                 ) -> tuple[dict, list[str]]:
    problems = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {}, [f"exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(lines[-1])
    envelope = json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"checks failed: {envelope.get('checks')}")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')!r}")
    if proc.left_behind:
        problems.append(f"processes left behind: {proc.left_behind}")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            problems.append(f"metric {name} missing")
            continue
        if entry.get("unit") != unit:
            problems.append(f"metric {name} unit {entry.get('unit')!r}, "
                            f"BENCHMARK.json says {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} value {value!r}")
        elif positive and value <= 0:
            problems.append(f"metric {name} is {value}, must be positive")
    extra = sorted(set(metrics) - set(expected))
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    return envelope, problems


def main() -> int:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from workloads import adopt_orphans

    adopt_orphans()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        spec = json.load(src)
    groups = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            envelope, problems = check_result(
                run(ROOT, workload, trace), groups[trace], trace == 0)
            status = envelope.get("determinism", {}).get("status")
            if (trace == 1 and workload in DETERMINISTIC
                    and status != "repeated"):
                problems.append(f"traced run did not repeat the untraced "
                                f"fingerprint (status {status!r})")
            verdict = "ok" if not problems else "FAIL"
            print(f"{workload:<15} trace {trace}: {verdict}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith('{"correct"')
                         for line in proc.stdout.splitlines())
    ok = proc.returncode != 0 and not printed_result
    print(f"{'without src/':<15} fails: {'ok' if ok else 'FAIL'}")
    failures += not ok
    print("selftest: " + ("passed" if not failures else
                          f"{failures} check(s) failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
