"""Benchmark entry point.

Usage::

    python3 perfbench/run.py --workload served-mixed --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  One workload per process: the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the run's envelope (host, commit, seed, config, the
simulated and wall clocks side by side, checks).  ``--trace 0``
reports the end-to-end metrics with tracing off; ``--trace 1`` wraps
every layer boundary, reports the per-layer metrics plus the traced
run's own end-to-end metrics (``traced.*``), and prints the layer
tables on stderr.  ``--workload all`` runs every workload in its own
process and prints one table of every metric with its unit.

Scratch state lives under ``.perfbench/`` in the repository root; the
determinism fingerprints kept there make a rerun with the same seed
and the same program source fail loudly if the simulated I/O differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
NAMES = ("served-mixed", "sharded-ingest", "single-node")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- envelope ----------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the program's Python sources (path + bytes)."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as src:
                    digest.update(src.read())
    return digest.hexdigest()


def commit() -> str | None:
    """The checked-out commit, read from ``.git`` if the checkout has one."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as src:
            head = src.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(ROOT, ".git", ref), encoding="ascii") as src:
            return src.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="ascii") as src:
            for line in src:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as src:
            for line in src:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "cpu": cpu}


def check_determinism(workload: str, seed: int, digest: str, det: dict,
                      checks: list[str]) -> str:
    """Compare ``det`` with the fingerprint of an earlier run of the same
    seed and source; the first run of a pair records it."""
    path = os.path.join(STATE, "fingerprints.json")
    try:
        with open(path, encoding="utf-8") as src:
            known = json.load(src)
    except (OSError, ValueError):
        known = {}
    key = f"{workload}:{seed}:{digest[:16]}"
    if key in known:
        if known[key] != det:
            checks.append(f"DETERMINISM: seed {seed} gave {det}, an earlier "
                          f"run of the same source gave {known[key]}")
            return "mismatch"
        return "repeated"
    known[key] = det
    os.makedirs(STATE, exist_ok=True)
    temp = path + f".{os.getpid()}"
    with open(temp, "w", encoding="utf-8") as sink:
        json.dump(known, sink, indent=1, sort_keys=True)
    os.replace(temp, path)
    return "recorded"


# -- one workload ------------------------------------------------------------


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import spans
    import workloads

    workdir = os.path.join(STATE, "runs",
                           f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(os.path.join(workdir, "spans"), "bench")
        tracer.extra["main_thread"] = threading.get_ident()
        spans.install(tracer)
    ctx = workloads.Context(args.seed, args.seconds, workdir, tracer)
    workloads.adopt_orphans()
    started = time.time()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
        e2e = workloads.end_to_end(outcome)
        checks = list(outcome.checks)
        digest = source_digest()
        determinism = None
        if outcome.det is not None:
            determinism = check_determinism(args.workload, args.seed, digest,
                                            outcome.det, checks)
        if tracer is not None:
            import layers

            dumps = spans.load_dumps(tracer.out_dir) + [tracer.snapshot()]
            per_layer, report = layers.analyse(args.workload, outcome,
                                               dumps)
            metrics = dict(per_layer)
            metrics.update({f"traced.{name}": value
                            for name, value in e2e.items()})
        else:
            metrics, report = e2e, ""
    finally:
        workloads.stop_descendants()
        shutil.rmtree(workdir, ignore_errors=True)
    t0, t1 = outcome.window
    wall, sim = outcome.timed_s, outcome.sim_s
    envelope = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started_unix": started, "host": host_facts(),
        "commit": commit(), "source_digest": digest,
        "config": outcome.config,
        "clocks": {"timed_wall_s": wall, "timed_sim_s": sim,
                   "sim_per_wall": sim / wall,
                   "layer_window_s": t1 - t0,
                   "setup_wall_s": outcome.setup_s,
                   "setup_sim_s": outcome.before.clock},
        "determinism": {"status": determinism, "fingerprint": outcome.det},
        "checks": checks or ["all passed"],
        "error_rate": outcome.failed / max(1, outcome.attempted),
        "counts": {"records": outcome.records, "requests": outcome.requests,
                   "offers": len(outcome.offer_lat),
                   "samples": len(outcome.sample_lat)},
        "latency_ms": {
            op: {**{f"p{q}": workloads.percentile(values, q / 100) * 1e3
                    for q in (10, 25, 50, 75, 90, 99, 100)},
                 "mean": statistics.fmean(values) * 1e3}
            for op, values in (("offer_batch", outcome.offer_lat),
                               ("sample", outcome.sample_lat))},
        "extra": {key: value for key, value in outcome.extra.items()
                  if isinstance(value, (int, float, str, dict, list))
                  and key != "shards_before" and key != "shards_after"},
    }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    result_path = os.path.join(
        STATE, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as sink:
        json.dump({"envelope": envelope, "metrics": metrics}, sink,
                  indent=1, default=str)
    print(render(args.workload, envelope, metrics, report), file=sys.stderr)
    if checks:
        print("perfbench: CHECK FAILED -- " + "; ".join(checks),
              file=sys.stderr)
    print(json.dumps(envelope, default=str))
    print(json.dumps({
        "correct": not checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def render(workload: str, envelope: dict, metrics: dict, report: str) -> str:
    clocks = envelope["clocks"]
    lines = [f"== {workload} (seed {envelope['seed']}, "
             f"trace {envelope['trace']}) ==",
             f"clocks: timed phase {clocks['timed_wall_s']:.3f} s wall, "
             f"{clocks['timed_sim_s']:.3f} s simulated disk "
             f"({clocks['sim_per_wall']:.3f} sim s per wall s)",
             f"checks: {'; '.join(envelope['checks'])}"]
    if envelope["determinism"]["status"]:
        lines.append(f"determinism: {envelope['determinism']['status']}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<{width}}  {value:>14.6g} {unit}")
    if report:
        lines.append(report)
    return "\n".join(lines)


# -- every workload ----------------------------------------------------------


def run_all(args) -> int:
    rows: dict[str, dict] = {}
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        rows[name] = result
    names = sorted({metric for result in rows.values()
                    for metric in result["metrics"]})
    width = max([len(n) for n in names] + [6])
    header = f"{'metric':<{width}}  {'unit':<10}" + "".join(
        f"{name:>16}" for name in rows)
    print(header)
    for metric in names:
        unit = next(result["metrics"][metric]["unit"]
                    for result in rows.values()
                    if metric in result["metrics"])
        cells = "".join(
            f"{result['metrics'][metric]['value']:>16.6g}"
            if metric in result["metrics"] else f"{'-':>16}"
            for result in rows.values())
        print(f"{metric:<{width}}  {unit:<10}{cells}")
    print("correct: " + ", ".join(f"{name}={result['correct']}"
                                  for name, result in rows.items()))
    return status


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source at src/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
