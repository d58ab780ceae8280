"""Server process of the served-mixed workload.

Usage: ``python3 perfbench/serve_proc.py ROOT SEED [TRACE_DIR]``

Owns a process-pool ``ShardedReservoir`` behind a ``ReservoirServer``
on an ephemeral localhost port, which it prints as one JSON line.  It
serves until a line (or EOF) arrives on stdin, then drains (checkpoint),
closes the engine -- stopping the shard workers -- and prints its
counters as a final JSON line.  With ``TRACE_DIR`` the span wrappers
are installed before the pool forks its workers, and the server's own
spans are written there on exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


async def serve(root: str, seed: int, tracer) -> dict:
    from repro.core.geometric_file import GeometricFileConfig
    from repro.serve import ReservoirServer, ServerConfig
    from repro.service import ShardedReservoir
    from workloads import SERVED_CONFIG, SERVED_SHARDS, stop_descendants

    engine = ShardedReservoir(root, GeometricFileConfig(**SERVED_CONFIG),
                              shards=SERVED_SHARDS, pool="process",
                              seed=seed)
    try:
        server = ReservoirServer(engine, ServerConfig())
        await server.start()
        print(json.dumps({"port": server.address[1]}), flush=True)
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.readline)
        await server.shutdown()
    finally:
        engine.close()
        stop_descendants()
    counters = {"requests_served": server.requests_served,
                "busy_rejections": server.busy_rejections,
                "rate_limit_rejections": server.rate_limit_rejections}
    if tracer is not None:
        tracer.extra["server"] = counters
        tracer.dump()
    return counters


def main(argv: list[str]) -> int:
    root, seed = argv[0], int(argv[1])
    trace_dir = argv[2] if len(argv) > 2 else ""
    tracer = None
    if trace_dir:
        import spans
        tracer = spans.Tracer(trace_dir, "server")
        spans.install(tracer)
    counters = asyncio.run(serve(root, seed, tracer))
    print(json.dumps(counters), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
