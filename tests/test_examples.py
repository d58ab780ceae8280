"""Smoke tests: every shipped example must run end to end.

Examples honour REPRO_EXAMPLE_QUICK=1 (a ~50x smaller workload with the
same code paths), so this entire module runs in seconds.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples")
    .glob("*.py")
)


def run_quick(path: pathlib.Path) -> str:
    """Run one example in quick mode; returns its stdout."""
    env = dict(os.environ, REPRO_EXAMPLE_QUICK="1")
    args = [sys.executable, str(path)]
    if path.stem == "compare_alternatives":
        args += ["--scale", "2000"]
    result = subprocess.run(args, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path):
    assert run_quick(path).strip(), "examples must narrate their output"


def test_quickstart_quick_mode_writes_disk_segments():
    """Quick mode still flushes through the disk: segments per flush and
    head movements are both nonzero."""
    out = run_quick(EXAMPLES[0].parent / "quickstart.py")
    segments = re.search(r"(\d+) segments per flush", out)
    moves = re.search(r"([\d,]+) head movements", out)
    assert segments and int(segments.group(1)) >= 1, out
    assert moves and int(moves.group(1).replace(",", "")) > 0, out
