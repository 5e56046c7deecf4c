#!/usr/bin/env python3
"""Regenerate the benchmark's pinned inputs and expected outputs.

    python3 perfbench/make_pinned.py

Writes into perfbench/pinned/: the d=5 and d=10 certificates at seed 1, the
census JSON of the two explicit covers the explicit-census workload builds,
the sha256 of their graph JSON and DOT files, and the embed-d5 output at the
default seed.  Run it only when an output format is meant to change; the benchmark
checks every run against these files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from thetalattice.cli import main as cli  # noqa: E402
from workloads import (  # noqa: E402
    CENSUS_FULL_UNIT_D10,
    CENSUS_TORUS_D5,
    CERT_D5,
    CERT_D10,
    DEFAULT_SEED,
    EMBED_D5,
    EMBED_TRUNC_S,
    FULL_UNIT_TRUNC_S,
    GRAPH_HASHES,
    PINNED,
    TORUS_N,
    TORUS_TRUNC_S,
)


def run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli(list(argv))
    if rc != 0:
        raise SystemExit(f"thetalattice {' '.join(argv)} exited {rc}")


def main() -> None:
    PINNED.mkdir(exist_ok=True)
    run("construct", "--d", "5", "--seed", "1", "-o", str(CERT_D5))
    run("construct", "--d", "10", "--seed", "1", "-o", str(CERT_D10))
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        torus, full_unit = Path(tmp) / "torus_d5", Path(tmp) / "full_unit_d10"
        run("export", "--d", "5", "--kind", "torus", "--cert", str(CERT_D5),
            "--trunc-s", str(TORUS_TRUNC_S), "--torus-n", str(TORUS_N), "-o", str(torus))
        run("census", str(torus.with_suffix(".json")), "-o", str(CENSUS_TORUS_D5))
        run("export", "--d", "10", "--kind", "full-unit", "--cert", str(CERT_D10),
            "--trunc-s", str(FULL_UNIT_TRUNC_S), "-o", str(full_unit))
        run("census", str(full_unit.with_suffix(".json")), "-o", str(CENSUS_FULL_UNIT_D10))
        for stem in (torus, full_unit):
            for path in (stem.with_suffix(".json"), stem.with_suffix(".dot")):
                hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    GRAPH_HASHES.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    run("embed", str(CERT_D5), "--trunc-s", str(EMBED_TRUNC_S), "--seed", str(DEFAULT_SEED),
        "-o", str(EMBED_D5))


if __name__ == "__main__":
    main()
