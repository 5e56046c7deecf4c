#!/usr/bin/env python3
"""Certify a small lattice, truncate its lift sequence, and find a verified
straight-line placement of the full unit graph; writes JSON and OBJ.

Usage: python scripts/embedding_demo.py [--d 5] [--trunc-s 3] [--seed 3]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from thetalattice.certify import certify
from thetalattice.embed import (
    check_embedding_properties,
    find_good_try,
    try_to_json,
    try_to_obj,
)
from thetalattice.voltage import BaseGraph, derived_cover


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=5)
    parser.add_argument("--trunc-s", type=int, default=3, dest="trunc_s")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--max-attempts", type=int, default=1000, dest="max_attempts")
    parser.add_argument("-o", "--output", default="embedding_demo.json")
    parser.add_argument("--obj", default="embedding_demo.obj")
    args = parser.parse_args()

    cert = certify(args.d, seed=1)
    truncated = cert.volt.truncate(args.trunc_s)
    fug = derived_cover(BaseGraph(cert.d), truncated)
    print(
        f"full unit graph at d={args.d}, s={truncated.s}: "
        f"{fug.vertex_count} vertices, {len(fug.edge_array)} edges; "
        f"checking {27 * len(fug.edge_array)} block segments"
    )

    t0 = time.perf_counter()
    t, attempts = find_good_try(fug, args.seed, args.max_attempts)
    elapsed = time.perf_counter() - t0
    print(f"good try on attempt {attempts} ({elapsed:.1f}s, exact arithmetic)")
    print(f"checklist: {check_embedding_properties(t, fug)}")

    Path(args.output).write_text(try_to_json(t, attempts, args.seed))
    Path(args.obj).write_text(try_to_obj(t, fug))
    print(f"wrote {args.output} and {args.obj}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
