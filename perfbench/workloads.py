"""The benchmark's workloads: fixed sequences of `thetalattice` CLI commands
with exact checks on every output.

Each workload has a set-up (`setup`) that loads and re-verifies its pinned
inputs and computes expected values outside any timed span, and a pass
(`commands`) of CLI invocations.  A command is (metric, argv, check); the
check gets the exit code and the captured standard output and returns a list
of problems, empty when the output is correct.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned"
DEFAULT_SEED = 1

CERT_D5 = PINNED / "cert_d5_seed1.json"
CERT_D10 = PINNED / "cert_d10_seed1.json"
CENSUS_TORUS_D5 = PINNED / "census_torus_d5_s3_n4.json"
CENSUS_FULL_UNIT_D10 = PINNED / "census_full_unit_d10_s8.json"
EMBED_D5 = PINNED / f"embed_d5_s4_seed{DEFAULT_SEED}.json"
GRAPH_HASHES = PINNED / "graph_sha256.json"

TORUS_TRUNC_S, TORUS_N = 3, 4
FULL_UNIT_TRUNC_S = 8
EMBED_TRUNC_S = 4
D10_CONSTRAINTS = 74_340


class SetupError(Exception):
    """A pinned input failed its re-verification."""


@dataclass
class Command:
    metric: str
    argv: list[str]
    check: Callable[[int, str], list[str]]


def verified_certificate(tl, path: Path):
    """Load a pinned certificate and re-verify it; all flags must be true."""
    cert = tl.voltage.LiftCertificate.from_json(path.read_text())
    base, _ = tl.voltage.build_base_graph(cert.d)
    volt = cert.to_voltage(base)
    fresh = tl.certify.verify_certificate(
        base, volt, seed=cert.seed, constraint_count=cert.constraint_count
    )
    if not (fresh.flags.all_true and fresh.flags == cert.flags):
        raise SetupError(f"{path.name}: re-verified flags {fresh.flags.to_dict()}")
    return cert, base, volt


def truncated(volt, k: int):
    """The voltage restricted to its first k lift stages."""
    keep = (1 << k) - 1
    return volt.with_bits(k, {e: m & keep for e, m in volt.level_bits.items() if m & keep})


# ---------------------------------------------------------------------------
# checks

def _exit_ok(rc: int) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


def _verdict_pass(rc: int, out: str) -> list[str]:
    problems = _exit_ok(rc)
    if "VERDICT: PASS" not in out.splitlines():
        problems.append("verify did not print VERDICT: PASS")
    return problems


def _certificate_ok(path: Path, d: int, constraints: int | None) -> list[str]:
    data = json.loads(path.read_text())
    problems = []
    if data["d"] != d:
        problems.append(f"certificate d={data['d']}, expected {d}")
    if not all(data["flags"].values()):
        problems.append(f"certificate flags {data['flags']}")
    if len(data["level_bits"]) != data["s"]:
        problems.append("certificate s does not match its stages")
    if constraints is not None and data["constraint_count"] != constraints:
        problems.append(f"constraint_count={data['constraint_count']}, expected {constraints}")
    return problems


def _same_bytes(path: Path, pinned: Path) -> list[str]:
    return [] if path.read_bytes() == pinned.read_bytes() else [f"{path.name} differs from {pinned.name}"]


def _sha256_ok(path: Path, expected: str) -> list[str]:
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    return [] if got == expected else [f"{path.name} sha256 {got[:12]} differs from the pinned hash"]


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    why = ""
    degrees: tuple[int, ...] = ()
    # the host-speed reference loop whose slowdowns track this workload's
    # (hostspeed.REFERENCES)
    reference = "interpreter"

    def setup(self, tl) -> dict:
        """Re-verify pinned inputs and build this workload's base and root
        graphs; return the expected values the checks need.  Raises
        SetupError when a pinned input is wrong."""
        for d in self.degrees:
            tl.voltage.build_base_graph(d)
            tl.graphs.build_root_unit_graph(d)
        return {}

    def commands(self, expected: dict, seed: int, work: Path) -> list[Command]:
        raise NotImplementedError

    def facts(self, work: Path) -> dict[str, int]:
        """Counts read from a pass's output files, reported next to timings."""
        return {}


def _lift_stages(cert: Path) -> dict[str, int]:
    """s of the certificate construct wrote; every explicit cover is 2^s
    times larger."""
    return {"lift_stages": json.loads(cert.read_text())["s"]}


class ConstructD10(Workload):
    name = "construct-d10"
    why = "headline d=10 lattice on the explicit greedy route: constraint enumeration, signing search, DFS re-check"
    degrees = (10,)

    def setup(self, tl):
        expected = super().setup(tl)
        verified_certificate(tl, CERT_D10)
        if tl.certify.constraint_count_formula(10) != D10_CONSTRAINTS:
            raise SetupError("constraint_count_formula(10) changed")
        return expected

    def commands(self, expected, seed, work):
        cert = work / "cert_d10.json"
        report = work / "report_d10.json"

        def check_construct(rc, out):
            return _exit_ok(rc) or _certificate_ok(cert, 10, D10_CONSTRAINTS)

        def check_report(rc, out):
            problems = _exit_ok(rc)
            data = json.loads(report.read_text())
            if data["ratio"] != "8/3" or data["d6"] != "-3/4000000":
                problems.append(f"report ratio={data['ratio']} d6={data['d6']}")
            return problems

        return [
            Command("construct_s", ["construct", "--d", "10", "--seed", str(seed), "-o", str(cert)], check_construct),
            Command("verify_s", ["verify", str(CERT_D10)], _verdict_pass),
            Command("verify_s", ["report", str(CERT_D10), "-o", str(report)], check_report),
        ]

    def facts(self, work):
        return _lift_stages(work / "cert_d10.json")


class KappaD33(Workload):
    name = "kappa-d33"
    why = "kappa=10 picks d=33: random signings verified only by the aggregated voltage census, no constraint enumeration"
    degrees = (33,)

    def commands(self, expected, seed, work):
        cert = work / "cert_d33.json"
        report = work / "report_d33.json"

        def check_construct(rc, out):
            problems = _exit_ok(rc)
            if "kappa 10 -> minimal degree d = 33" not in out:
                problems.append("construct did not pick d = 33")
            return problems or _certificate_ok(cert, 33, None)

        def check_report(rc, out):
            problems = _exit_ok(rc)
            data = json.loads(report.read_text())
            if not (data["d"] == 33 and Fraction(data["ratio"]) > 10 and Fraction(data["c6_bar"]) == 0):
                problems.append(f"report d={data['d']} ratio={data['ratio']} c6_bar={data['c6_bar']}")
            if data.get("ratio_exceeds_kappa") is not True:
                problems.append("report does not say the ratio exceeds kappa")
            return problems

        return [
            Command("construct_s", ["construct", "--kappa", "10", "--seed", str(seed), "-o", str(cert)], check_construct),
            Command("verify_s", ["verify", str(cert)], _verdict_pass),
            Command("verify_s", ["report", str(cert), "--kappa", "10", "-o", str(report)], check_report),
        ]

    def facts(self, work):
        return _lift_stages(work / "cert_d33.json")


class ExplicitCensus(Workload):
    name = "explicit-census"
    why = "explicit covers: torus and full-unit-graph construction, graph JSON write/read, exact census on ~5-6k vertices"
    degrees = (5, 10)
    # most of a pass is dense numpy products on ~5,000-vertex matrices
    # (count_c6), which slow like memory-bound code, not like the interpreter
    reference = "memory"

    def setup(self, tl):
        expected = super().setup(tl)
        _, base5, volt5 = verified_certificate(tl, CERT_D5)
        verified_certificate(tl, CERT_D10)
        per_cube = tl.census.voltage_census(base5, truncated(volt5, TORUS_TRUNC_S))
        cells = TORUS_N**3
        expected["torus"] = {
            key: cells * getattr(per_cube, key)
            for key in ("c4_total", "c4_central", "c4_stray", "c6", "theta222")
        }
        expected["graph_sha256"] = json.loads(GRAPH_HASHES.read_text())
        return expected

    def commands(self, expected, seed, work):
        torus = work / "torus_d5"
        full_unit = work / "full_unit_d10"
        census_torus = work / "census_torus_d5.json"
        census_full_unit = work / "census_full_unit_d10.json"
        hashes = expected["graph_sha256"]

        def check_export(stem):
            def check(rc, out):
                files = (stem.with_suffix(".json"), stem.with_suffix(".dot"))
                return _exit_ok(rc) or [p for f in files for p in _sha256_ok(f, hashes[f.name])]
            return check

        def check_torus_census(rc, out):
            problems = _exit_ok(rc) or _same_bytes(census_torus, CENSUS_TORUS_D5)
            data = json.loads(census_torus.read_text())
            for key, want in expected["torus"].items():
                if data[key] != want:
                    problems.append(f"torus {key}={data[key]}, n^3 x voltage census gives {want}")
            return problems

        def check_full_unit_census(rc, out):
            return _exit_ok(rc) or _same_bytes(census_full_unit, CENSUS_FULL_UNIT_D10)

        return [
            Command("export_s", [
                "export", "--d", "5", "--kind", "torus", "--cert", str(CERT_D5),
                "--trunc-s", str(TORUS_TRUNC_S), "--torus-n", str(TORUS_N), "-o", str(torus),
            ], check_export(torus)),
            Command("census_s", ["census", str(torus.with_suffix(".json")), "-o", str(census_torus)], check_torus_census),
            Command("export_s", [
                "export", "--d", "10", "--kind", "full-unit", "--cert", str(CERT_D10),
                "--trunc-s", str(FULL_UNIT_TRUNC_S), "-o", str(full_unit),
            ], check_export(full_unit)),
            Command("census_s", ["census", str(full_unit.with_suffix(".json")), "-o", str(census_full_unit)], check_full_unit_census),
        ]


class EmbedD5(Workload):
    name = "embed-d5"
    why = "exact straight-line embedding check: 208 vertices, 400 edges, 10,800 block segments; the only workload reaching embed"
    degrees = (5,)

    def setup(self, tl):
        expected = super().setup(tl)
        verified_certificate(tl, CERT_D5)
        return expected

    def commands(self, expected, seed, work):
        out_path = work / "embed_d5.json"

        def check_embed(rc, out):
            problems = _exit_ok(rc)
            line = next((ln for ln in out.splitlines() if ln.startswith("placement checklist: ")), None)
            if line is None:
                return problems + ["embed printed no placement checklist"]
            checklist = ast.literal_eval(line.removeprefix("placement checklist: "))
            if not all(checklist.values()):
                problems.append(f"placement checklist {checklist}")
            if json.loads(out_path.read_text()).get("seed") != seed:
                problems.append("embedding file records another seed")
            if seed == DEFAULT_SEED:
                problems += _same_bytes(out_path, EMBED_D5)
            return problems

        return [
            Command("embed_s", [
                "embed", str(CERT_D5), "--trunc-s", str(EMBED_TRUNC_S), "--seed", str(seed),
                "-o", str(out_path),
            ], check_embed),
        ]


WORKLOADS = {w.name: w for w in (ConstructD10(), KappaD33(), ExplicitCensus(), EmbedD5())}
