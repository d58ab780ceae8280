"""Recompute ``record_list_goldens.json`` from the current build.

The goldens are where the drives of ``tests/test_one_layout.py`` end:
the biased files and the record-keeping baselines fed through each
ingest verb, and the parent manifest's continuation.  This script
imports those drives (``compute_goldens`` and the ``drive``,
``digest``, ``io_of`` and ``rng_digest`` it uses), so it and the test
cannot drift apart.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/record_list_goldens.py --diff
    PYTHONPATH=src python tests/fixtures/record_list_goldens.py --write

``--diff`` prints, for each golden, the fields the current build
changes (old -> new for numbers); ``--write`` replaces the fixture.
"""

from __future__ import annotations

import argparse
import json
import sys
from numbers import Number
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from test_one_layout import GOLDENS_PATH, compute_goldens  # noqa: E402


def flatten(goldens: dict) -> dict:
    """``section/name`` -> golden; the manifest continuation is one."""
    flat = {}
    for section, value in goldens.items():
        if section == "manifest_continuation":
            flat[section] = value
        else:
            for name, golden in value.items():
                flat[f"{section}/{name}"] = golden
    return flat


def changes(old, new, field: str = ""):
    """Yield ``(field, old, new)`` for every leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            name = f"{field}.{key}" if field else key
            yield from changes(old.get(key), new.get(key), name)
    elif old != new:
        yield field, old, new


def describe(field: str, old, new) -> str:
    if (isinstance(old, Number) and isinstance(new, Number)
            and not isinstance(old, bool)):
        return f"{field} {old!r} -> {new!r}"
    return field


def diff_lines(old: dict, new: dict) -> list[str]:
    old, new = flatten(old), flatten(new)
    lines = []
    for name in sorted(set(old) | set(new)):
        moved = [describe(*change)
                 for change in changes(old.get(name), new.get(name))]
        lines.append(f"{name}: {', '.join(moved) if moved else 'unchanged'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--diff", action="store_true",
                        help="print each golden's changed fields")
    action.add_argument("--write", action="store_true",
                        help="re-record the fixture")
    args = parser.parse_args(argv)
    new = compute_goldens()
    if args.write:
        GOLDENS_PATH.write_text(json.dumps(new, indent=1, sort_keys=True))
        return 0
    old = json.loads(GOLDENS_PATH.read_text())
    print("\n".join(diff_lines(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
