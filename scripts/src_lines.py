#!/usr/bin/env python3
"""Print the ``src/`` line count per package and in total.

Lines are counted like ``wc -l`` over every ``*.py`` file under ``src/``.
Each file is charged to its package: the first directory below
``src/repro`` (``algorithms``, ``thermal``, ...), or ``repro`` itself for
the top-level modules.  With ``--max N`` the script exits 1 when the
total exceeds ``N``, so the line count can only grow through an explicit
change of that bound.

Usage: python scripts/src_lines.py [--max N]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def count_lines() -> Counter:
    """Line counts keyed by package name."""
    counts: Counter = Counter()
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).parts
        package = parts[1] if len(parts) > 2 else parts[0]
        counts[package] += path.read_bytes().count(b"\n")
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max", type=int, default=None, metavar="N",
        help="exit 1 when the total exceeds N lines",
    )
    args = parser.parse_args(argv)
    counts = count_lines()
    for package, lines in sorted(counts.items()):
        print(f"{package:<12s} {lines:>7d}")
    total = sum(counts.values())
    print(f"{'total':<12s} {total:>7d}")
    if args.max is not None and total > args.max:
        print(f"src/ has {total} lines, above the bound of {args.max}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
