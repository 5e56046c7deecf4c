"""Command-line front end: deterministic construction, verification,
census, reporting, seeded embedding, and export.

construct builds the Wenger certificate of a degree (certify.wenger_voltage):
the same stages for every seed, with --seed only recorded in the file.
embed samples its placements from --seed.  verify and report decide a
certificate by the same check on one voltage census (certify.census_certificate);
verify alone adds the DFS re-check up to d = 20 (certify.verification_route).

Exit codes: 0 success/verified, 1 verification failure, 2 usage error
(including an input too large to build, an allocation that fails, a graph
file that is not bipartite, an option that the command would not read, and
an unwritable output file), 3 embed attempts exhausted.  A command writes
its files before it prints, and on exit 2 leaves none of them behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .census import census as census_of_graph, voltage_census
from .certify import census_certificate, certify, verification_route, verify_certificate
from .embed import (
    EMBED_EDGE_LIMIT,
    check_embedding_properties,
    find_good_try,
    try_to_json,
    try_to_obj,
)
from .entropy import LatticeSummary, min_degree_for_kappa, summary_table
from .errors import AttemptsExhausted, TooLarge
from .graphs import graph_from_json, graph_to_dot, graph_to_json
from .voltage import BaseGraph, LiftCertificate, build_base_graph, check_cover_size, derived_cover

# every refusal of input is a ValueError (errors.py), OSError an input file
# that is missing or unreadable, and MemoryError an input too large to hold
_USAGE_ERRORS = (ValueError, OSError, MemoryError)


def _write(*files: tuple[str | Path, str]) -> None:
    """Write each (path, text); on an OSError, remove the files this call
    opened and re-raise."""
    written = []
    try:
        for path, text in files:
            with open(path, "w") as f:
                written.append(path)
                f.write(text)
    except OSError:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from exc


def _truncated_voltage(cert: LiftCertificate, trunc_s: int | None):
    """The certificate's voltage, optionally keeping only its first trunc_s
    lift stages (the placement procedure is stage-agnostic)."""
    return cert.volt if trunc_s is None else cert.volt.truncate(trunc_s)


def _recheck(cert: LiftCertificate, fresh: LiftCertificate) -> tuple[bool, list[str]]:
    """Whether a certificate passes against fresh, its re-derivation from
    the voltage census: the recomputed flags are all true and equal the
    file's, and so do the constraint counts.  Also the lines that say so,
    which verify always prints and report only on a failure."""
    ok = fresh.flags.all_true and fresh.flags == cert.flags
    lines = [f"recomputed flags: {fresh.flags.to_dict()}"]
    if cert.constraint_count != fresh.constraint_count:
        lines.append(
            f"constraint count mismatch: certificate claims {cert.constraint_count}, "
            f"recomputed {fresh.constraint_count}"
        )
        ok = False
    return ok, lines


# ---------------------------------------------------------------------------
# subcommands

def _cmd_construct(args) -> int:
    kappa = None if args.kappa is None else _parse_rational(args.kappa)
    d = args.d if kappa is None else min_degree_for_kappa(kappa)
    t0 = time.perf_counter()
    cert = certify(d, seed=args.seed)
    elapsed = time.perf_counter() - t0
    out = args.output or f"cert_d{d}.json"
    _write((out, cert.to_json()))
    if kappa is not None:
        print(f"kappa {kappa} -> minimal degree d = {d}")
    print(
        f"certified d={cert.d} with s={cert.s} stages "
        f"({cert.constraint_count} constraint cycles, {elapsed:.1f}s) -> {out}"
    )
    print(f"flags: {cert.flags.to_dict()}")
    return 0 if cert.flags.all_true else 1


def _cmd_verify(args) -> int:
    cert = LiftCertificate.from_json(Path(args.certificate).read_text())
    base, volt = BaseGraph(cert.d), cert.volt
    t0 = time.perf_counter()
    # one census serves the flags and the summary
    report = voltage_census(base, volt)
    fresh = verify_certificate(base, volt, seed=cert.seed, report=report)
    route = verification_route(cert.d)
    print(f"certificate: d={cert.d} s={cert.s} seed={cert.seed}")
    print(f"route: {route}")
    note = "" if route == "census+dfs" else " (closed-form value, not enumerated)"
    print(f"constraint cycles: {fresh.constraint_count}{note}")
    ok, lines = _recheck(cert, fresh)
    print("\n".join(lines))
    if ok:
        print(summary_table([LatticeSummary(cert.d, cert.s, report)]))
    print(f"elapsed: {time.perf_counter() - t0:.1f}s")
    print(f"VERDICT: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_census(args) -> int:
    g = graph_from_json(Path(args.graph).read_text())
    report = census_of_graph(g)
    text = _json_text(report.to_json_dict())
    if args.output:
        _write((args.output, text))
    print(text, end="")
    return 0


def _cmd_report(args) -> int:
    cert = LiftCertificate.from_json(Path(args.certificate).read_text())
    kappa = None if args.kappa is None else _parse_rational(args.kappa)
    # the census decides the verdict, as in verify, but with no DFS re-check
    base = BaseGraph(cert.d)
    report = voltage_census(base, cert.volt)
    ok, lines = _recheck(cert, census_certificate(base, cert.volt, report))
    if not ok:
        print("\n".join(lines))
        print("VERDICT: FAIL")
        return 1
    summary = LatticeSummary(cert.d, cert.s, report, kappa)
    if args.output:
        _write((args.output, _json_text(summary.to_json_dict())))
    print(summary_table([summary]))
    return 0


def _cmd_embed(args) -> int:
    cert = LiftCertificate.from_json(Path(args.certificate).read_text())
    base, volt = BaseGraph(cert.d), _truncated_voltage(cert, args.trunc_s)
    edges = (1 << volt.s) * cert.d**2
    if edges > EMBED_EDGE_LIMIT:
        raise TooLarge(
            f"embedding d={cert.d}, s={volt.s} means checking {edges} edges, above the "
            f"limit of {EMBED_EDGE_LIMIT}; cut the certificate with --trunc-s"
        )
    fug = derived_cover(base, volt)
    resolution = _parse_rational(args.grid_resolution)
    try:
        t, attempts = find_good_try(
            fug, args.seed, args.max_attempts, resolution
        )
    except AttemptsExhausted as exc:
        print(f"embedding failed: {exc}", file=sys.stderr)
        return 3
    props = check_embedding_properties(t, fug)
    files = [(args.output or f"embedding_d{cert.d}_s{volt.s}.json", try_to_json(t, attempts, args.seed))]
    if args.obj:
        files.append((args.obj, try_to_obj(t, fug)))
    _write(*files)
    print(
        f"good try for d={cert.d} s={volt.s} after {attempts} attempt(s); "
        f"{fug.vertex_count} vertices, {len(fug.edge_array)} edges"
    )
    print(f"placement checklist: {props}")
    for path, _ in files:
        print(f"wrote {path}")
    return 0 if all(props.values()) else 1


# the options of export that a --kind reads besides --d and -o; the other
# kinds read none
_EXPORT_USES = {"full-unit": {"--cert", "--trunc-s"}, "torus": {"--cert", "--trunc-s", "--torus-n"}}


def _cmd_export(args) -> int:
    d = args.d
    for flag, value in (("--cert", args.certificate), ("--trunc-s", args.trunc_s), ("--torus-n", args.torus_n)):
        if value is not None and flag not in _EXPORT_USES.get(args.kind, ()):
            raise ValueError(f"{flag} is not used by --kind {args.kind}")
    if args.trunc_s is not None and args.certificate is None:
        raise ValueError("--trunc-s is not used without --cert")
    # no kind has fewer vertices and edges than the root cover but base and
    # central, which have no more, so a degree whose root cover is too large
    # is refused before anything is built
    check_cover_size(d, 0)
    base, volt = build_base_graph(d)
    if args.kind == "base":
        g = base.graph
    elif args.kind == "central":
        g = base.central
    else:  # root (the zero voltage with no torus side), full-unit or torus
        if args.certificate:
            cert = LiftCertificate.from_json(Path(args.certificate).read_text())
            if cert.d != d:
                raise ValueError(f"certificate is for d={cert.d}, not {d}")
            volt = _truncated_voltage(cert, args.trunc_s)
        # --torus-n is refused for root and full-unit, so only a torus has a side
        n = 2 if args.kind == "torus" and args.torus_n is None else args.torus_n
        g = derived_cover(base, volt, n)
    stem = Path(args.output)
    _write((stem.with_suffix(".json"), graph_to_json(g)), (stem.with_suffix(".dot"), graph_to_dot(g)))
    print(f"wrote {stem.with_suffix('.json')} and {stem.with_suffix('.dot')}")
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args fills a
    fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="thetalattice",
        description=(
            "Construct, certify, measure and embed 3D regular bipartite "
            "lattices with no 6-cycles and only-central 4-cycles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and verify the Wenger lift certificate")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int, help="regularity degree (>= 5)")
    group.add_argument("--kappa", help="target ratio; picks the minimal degree")
    p.add_argument(
        "--seed", type=int, default=0,
        help="recorded in the certificate's seed field; the stages are the same for every seed",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="independently re-verify a certificate")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="exact census of a graph JSON file")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("report", help="re-check a certificate by its census and print its summary table")
    p.add_argument("certificate")
    p.add_argument("--kappa", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("embed", help="find and verify a straight-line placement")
    p.add_argument("certificate")
    p.add_argument("--trunc-s", type=int, default=None, dest="trunc_s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-attempts", type=int, default=1000, dest="max_attempts")
    p.add_argument(
        "--grid-resolution", default="1/1048576", dest="grid_resolution"
    )
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--obj", default=None)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("export", help="write a constructed graph as JSON and DOT")
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--kind",
        choices=("root", "central", "base", "full-unit", "torus"),
        default="root",
    )
    p.add_argument("--cert", dest="certificate", default=None)
    p.add_argument("--trunc-s", type=int, default=None, dest="trunc_s")
    p.add_argument("--torus-n", type=int, default=None, dest="torus_n", help="torus side (default 2)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export)

    # main reports an argument no command reads with that command's usage
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # the arguments before the command are thetalattice's own, and all of
        # them are unknown to it
        argv = sys.argv[1:] if argv is None else argv
        own = argv[: argv.index(args.command)]
        parser = build_parser() if own else args.parser
        parser.error(f"unrecognized arguments: {' '.join(own or unknown)}")
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        # a MemoryError of Python's own allocator has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
