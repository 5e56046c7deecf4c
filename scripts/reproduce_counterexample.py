#!/usr/bin/env python3
"""Certify lattices over a degree range and print the order-6 coefficient
table; the sign flips from positive to negative at d = 10.

Usage: python scripts/reproduce_counterexample.py [--dmin 5] [--dmax 10]
       [-o table.json]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from thetalattice.certify import certify
from thetalattice.entropy import lattice_report, summary_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dmin", type=int, default=5)
    parser.add_argument("--dmax", type=int, default=10)
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args()

    summaries = []
    for d in range(args.dmin, args.dmax + 1):
        t0 = time.perf_counter()
        cert = certify(d)
        elapsed = time.perf_counter() - t0
        summary = lattice_report(cert)
        summaries.append(summary)
        print(
            f"d={d}: certified with s={cert.s} stages over "
            f"{cert.constraint_count} constraint cycles in {elapsed:.1f}s"
        )

    print()
    print(summary_table(summaries))
    negatives = [m.d for m in summaries if m.d6_negative]
    print()
    if negatives:
        print(f"order-6 coefficient is negative for d in {negatives}")
    else:
        print("no negative order-6 coefficient in this range (expected for d < 10)")

    if args.output:
        Path(args.output).write_text(
            json.dumps([m.to_json_dict() for m in summaries], indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
