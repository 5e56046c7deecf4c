import ast
import hashlib
import importlib
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import VertexLabel, edge_disp, random_bits_voltage, torus_with_same_colour_edge
from thetalattice.certify import certify, wenger_voltage
from thetalattice.cli import build_parser, main
from thetalattice.embed import EMBED_EDGE_LIMIT
from thetalattice.entropy import min_degree_for_kappa
from thetalattice import graphs
from thetalattice.graphs import graph_to_json
from thetalattice.voltage import (
    BaseGraph,
    LiftCertificate,
    VoltageAssignment,
    build_base_graph,
    derived_cover,
    max_connected_stages,
)

PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def cert_d5(tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "cert_d5.json"
    code = main(["construct", "--d", "5", "--seed", "7", "-o", str(path)])
    assert code == 0
    return path


def test_construct_writes_certificate(cert_d5):
    cert = LiftCertificate.from_json(cert_d5.read_text())
    assert cert.d == 5
    assert cert.seed == 7
    assert cert.flags.all_true


def test_main_calls_parse_their_own_arguments(cert_d5, tmp_path, capsys):
    """The parser is built once per process, and each main() call still
    parses its own arguments: no option of one call leaks into the next."""
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["construct", "--d", "5", "--seed", "3"])
    second = build_parser().parse_args(["verify", str(cert_d5)])
    assert (first.command, first.d, first.seed) == ("construct", 5, 3)
    assert second.command == "verify" and not hasattr(second, "d") and not hasattr(second, "seed")
    seeded, unseeded = tmp_path / "seeded.json", tmp_path / "unseeded.json"
    assert main(["embed", str(cert_d5), "--trunc-s", "1", "--seed", "5", "-o", str(seeded)]) == 0
    assert main(["export", "--d", "5", "--kind", "base", "-o", str(tmp_path / "base")]) == 0
    assert main(["embed", str(cert_d5), "--trunc-s", "1", "-o", str(unseeded)]) == 0
    assert json.loads(seeded.read_text())["seed"] == 5
    assert json.loads(unseeded.read_text())["seed"] == 0
    assert (tmp_path / "base.json").exists()


def test_construct_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["construct", "--d", "5", "--seed", "3", "-o", str(a)]) == 0
    assert main(["construct", "--d", "5", "--seed", "3", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_rejects_small_degree(capsys):
    code, _, err = run(capsys, "construct", "--d", "4")
    assert code == 2
    assert "d >= 5" in err


def test_readme_commands_parse():
    """Every thetalattice command in the README's code blocks parses with no
    argument left unknown, so the README names no removed option, and the
    README shows every command."""
    blocks = (SRC.parent / "README.md").read_text().split("```")[1::2]
    lines = [re.split(r"#|>|&&|\|", line)[0].replace("$d", "5").strip() for b in blocks for line in b.splitlines()]
    commands = set()
    for line in lines:
        if line.startswith("thetalattice "):
            args, unknown = build_parser().parse_known_args(shlex.split(line)[1:])
            assert unknown == [], line
            commands.add(args.command)
    assert commands == {"construct", "verify", "census", "report", "embed", "export"}


def test_construct_has_no_policy_option(capsys):
    """The degree alone picks the stages: no search policy, stage budget or
    candidate pool to set."""
    for option, value in (("--policy", "greedy"), ("--max-s", "40"), ("--pool-size", "64")):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--d", "5", option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_kappa_100_wenger_stages_fit():
    """construct --kappa 100 picks d = 303, where the Wenger voltage has
    s = 2 * 9 = 18 stages, under the connectivity ceiling.  Built, not
    verified: the census at d = 303 takes minutes."""
    d = min_degree_for_kappa(Fraction(100))
    assert d == 303
    volt = wenger_voltage(build_base_graph(d)[0])
    assert volt.s == 18 <= max_connected_stages(d)
    assert max(volt.level_bits.values()) >> 18 == 0


@pytest.fixture(scope="module")
def cert_d33(tmp_path_factory):
    """construct --kappa 10: d = 33, s = 12."""
    path = tmp_path_factory.mktemp("certs") / "cert_d33.json"
    assert main(["construct", "--kappa", "10", "-o", str(path)]) == 0
    assert LiftCertificate.from_json(path.read_text()).s == 12
    return path


@pytest.fixture(scope="module")
def cert_d33_s30(cert_d33, tmp_path_factory):
    """cert_d33 padded with 18 all-zero stages to s = 30, so its covers pass
    COVER_LIMIT."""
    data = json.loads(cert_d33.read_text())
    data["s"], data["level_bits"] = 30, data["level_bits"] + ["0" * 33**2] * 18
    path = tmp_path_factory.mktemp("certs") / "cert_d33_s30.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["embed", "{d33_s30}", "-o", "{out}.json"],
            f"embedding d=33, s=30 means checking {2**30 * 33**2} edges, above the limit of "
            f"{EMBED_EDGE_LIMIT}; cut the certificate with --trunc-s",
        ),
        (
            ["export", "--d", "33", "--kind", "full-unit", "--cert", "{d33_s30}", "-o", "{out}"],
            f"a cover with n=None, s=30, d=33 has up to {69 * 2**30} vertices, above the limit of {2**20}",
        ),
        (
            ["export", "--d", "5", "--kind", "torus", "--torus-n", "100000", "-o", "{out}"],
            f"a cover with n=100000, s=0, d=5 has up to {13 * 10**15} vertices, above the limit of {2**20}",
        ),
    ],
    ids=["embed", "export-full-unit", "export-torus"],
)
def test_huge_cover_is_a_usage_error(cert_d33_s30, tmp_path, capsys, time_limit, argv, message):
    """A cover above COVER_LIMIT vertices exits 2 with one stderr line
    before anything is built or printed, and writes no file.  embed's own
    edge limit lies below every cover limit, so it refuses such a cover
    first."""
    out = tmp_path / "out"
    argv = [a.format(d33_s30=cert_d33_s30, out=out) for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", str(PINNED / "cert_d5_seed1.json"), "--trunc-s", "2", "-o", "{tmp}/e.json", "--obj", "{tmp}/no/x.obj"],
        ["report", str(PINNED / "cert_d5_seed1.json"), "-o", "{tmp}/no/r.json"],
        ["export", "--d", "5", "-o", "{tmp}/g"],
    ],
    ids=["embed-obj", "report", "export-dot"],
)
def test_an_unwritable_output_leaves_nothing_behind(tmp_path, capsys, argv):
    """A command whose output cannot be written exits 2 with one stderr
    line, prints nothing and leaves none of its files: embed's JSON is
    removed when its --obj directory is missing, and export's JSON when its
    <stem>.dot is a directory."""
    (tmp_path / "g.dot").mkdir()
    code, stdout, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "g.dot"]


@pytest.mark.parametrize("kind", ["base", "central", "root"])
def test_export_of_too_many_edges_is_a_usage_error(tmp_path, capsys, kind):
    """At d = 20000 the root cover's 40,003 vertices pass COVER_LIMIT but its
    4 * 10^8 edges do not: every kind is refused at once, as the root cover
    is, with one stderr line, no output and no file."""
    t0 = time.perf_counter()
    code, stdout, err = run(capsys, "export", "--d", "20000", "--kind", kind, "-o", str(tmp_path / "g"))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and stdout == ""
    assert err == f"error: a cover with n=None, s=0, d=20000 has {20000**2} edges, above the limit of {5 * 2**20}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "d, sha256",
    [
        (5, "8da20211783edab2f4019c0558e6e98743cbcf1e878e59aa0f01b0feae7fa655"),
        (10, "0a0d8abc45cd2ef29352ff083d074a2d9d869bbd9bd5a11053ff1b7e08118a26"),
    ],
    ids=["5", "10"],
)
def test_construct_matches_pinned_certificate(tmp_path, d, sha256):
    """construct --seed 1 writes the same Wenger certificate byte for byte,
    and another seed changes only the recorded seed."""
    one, two = tmp_path / "seed1.json", tmp_path / "seed2.json"
    assert main(["construct", "--d", str(d), "--seed", "1", "-o", str(one)]) == 0
    assert main(["construct", "--d", str(d), "--seed", "2", "-o", str(two)]) == 0
    assert hashlib.sha256(one.read_bytes()).hexdigest() == sha256
    a, b = json.loads(one.read_text()), json.loads(two.read_text())
    assert (a.pop("seed"), b.pop("seed")) == (1, 2)
    assert a == b


@pytest.mark.parametrize("d", [5, 10, 12, 13, 16, 20, 33])
def test_construct_then_verify_wenger(tmp_path, capsys, d):
    """construct writes s = 2 ceil(log2 d) stages with every flag true, and
    verify passes it on the route its degree picks."""
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "construct", "--d", str(d), "--seed", "1", "-o", str(path))
    assert code == 0
    cert = LiftCertificate.from_json(path.read_text())
    assert cert.s == 2 * (d - 1).bit_length() and cert.flags.all_true
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    lines = out.splitlines()
    assert f"route: {'census+dfs' if d <= 20 else 'census-only'}" in lines
    assert lines[-1] == "VERDICT: PASS"


@pytest.mark.parametrize("d", [5, 10])
def test_verify_passes_pinned_greedy_certificates(d, capsys):
    """The greedy-search certificates the benchmark pins, whose stages are
    not Wenger stages, still verify on the same route."""
    code, out, _ = run(capsys, "verify", str(PINNED / f"cert_d{d}_seed1.json"))
    assert code == 0
    assert "route: census+dfs" in out.splitlines()
    assert out.splitlines()[-1] == "VERDICT: PASS"


class _Reached(Exception):
    """Raised in place of building the full unit graph."""


@pytest.mark.parametrize(
    "cert, trunc_s, d, s",
    [
        pytest.param("pinned-d10", [], 10, 12, id="pinned-d10"),
        pytest.param("pinned-d10", ["--trunc-s", "11"], 10, 11, id="pinned-d10-s11"),
        pytest.param("kappa-10", [], 33, 12, id="kappa-10"),
    ],
)
def test_embed_refuses_more_edges_than_the_limit(cert_d33, tmp_path, capsys, time_limit, cert, trunc_s, d, s):
    """The embedding check is quadratic in the edge count: above
    EMBED_EDGE_LIMIT edges, embed exits 2 with one stderr line before it
    builds the full unit graph, prints nothing and writes no file.  Both
    certificates pass COVER_LIMIT."""
    path = PINNED / "cert_d10_seed1.json" if cert == "pinned-d10" else cert_d33
    code, stdout, err = run(capsys, "embed", str(path), *trunc_s, "-o", str(tmp_path / "out.json"))
    assert code == 2 and stdout == ""
    assert err == (
        f"error: embedding d={d}, s={s} means checking {2**s * d * d} edges, above the "
        f"limit of {EMBED_EDGE_LIMIT}; cut the certificate with --trunc-s\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_embed_edge_limit_admits_d10_s10(capsys, monkeypatch):
    """The largest run of the README's d = 10 table, --trunc-s 10 with
    102,400 edges, passes the edge limit and reaches the cover builder."""
    cli = importlib.import_module("thetalattice.cli")

    def reached(base, volt, n=None):
        raise _Reached(volt.s)

    monkeypatch.setattr(cli, "derived_cover", reached)
    with pytest.raises(_Reached):
        main(["embed", str(PINNED / "cert_d10_seed1.json"), "--trunc-s", "10"])
    assert 2**10 * 10**2 <= EMBED_EDGE_LIMIT < 2**11 * 10**2


def test_construct_kappa_picks_degree(tmp_path, capsys):
    out = tmp_path / "kappa.json"
    code, stdout, _ = run(capsys, "construct", "--kappa", "9/10", "--seed", "1", "-o", str(out))
    assert code == 0
    assert "d = 5" in stdout
    assert LiftCertificate.from_json(out.read_text()).d == 5


def test_construct_requires_d_or_kappa(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option, value", [("--kappa", "1e30"), ("--d", "10000000000")])
def test_construct_of_an_absurd_degree_is_a_usage_error(tmp_path, capsys, time_limit, option, value):
    """An absurd degree is refused by its Wenger stage count, above the
    limit of 61 from d = 2^30 + 1, before its (d, d) masks or the field's
    power table are built: exit 2, one line, no file."""
    out = tmp_path / "cert.json"
    code, stdout, err = run(capsys, "construct", option, value, "-o", str(out))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "61" in err
    assert "certified" not in stdout
    assert not out.exists()


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type int64",
         "error: Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type int64"),
        ("", "error: out of memory"),
    ],
)
def test_allocation_failure_is_a_usage_error(tmp_path, capsys, monkeypatch, message, line):
    """A MemoryError (numpy's, with its message, or Python's, with none)
    exits 2 with one line and writes no file."""
    cli = importlib.import_module("thetalattice.cli")

    def exhausted(d, seed=0):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "certify", exhausted)
    out = tmp_path / "cert.json"
    assert run(capsys, "construct", "--d", "100000", "-o", str(out)) == (2, "", line + "\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, argv, message",
    [
        ("construct", ["--d", "five"], "argument --d: invalid int value: 'five'"),
        ("verify", ["{cert}", "--no-such-option"], "unrecognized arguments: --no-such-option"),
        ("census", ["--no-such-option", "{cert}"], "unrecognized arguments: --no-such-option"),
        ("report", [], "the following arguments are required: certificate"),
        ("embed", ["{cert}", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        ("export", ["--kind", "root"], "the following arguments are required: --d"),
        ("construct", ["--d", "5", "--no-such-option"], "unrecognized arguments: --no-such-option"),
        ("report", ["{cert}", "--no-such-option"], "unrecognized arguments: --no-such-option"),
        ("embed", ["--no-such-option", "{cert}"], "unrecognized arguments: --no-such-option"),
        ("export", ["--d", "5", "--no-such-option"], "unrecognized arguments: --no-such-option"),
        # an unknown option before the command is thetalattice's own
        ("export", ["--bogus", "{command}", "--d", "5"], "unrecognized arguments: --bogus"),
        ("verify", ["--bogus", "{command}", "{cert}"], "unrecognized arguments: --bogus"),
        # verify takes the certificate and no option
        ("verify", ["{cert}", "--torus-n", "2"], "unrecognized arguments: --torus-n 2"),
    ],
)
def test_argparse_refusal_is_usage_line_and_one_error(cert_d5, tmp_path, command, argv, message):
    """An unknown option, a missing required argument or a non-integer
    value exits 2 with the command's own usage and one error line, no
    traceback, and no output file; an unknown option placed before the
    command ({command} in argv) gets the top-level usage instead.  verify
    writes no file, so its argv has no -o."""
    out = tmp_path / "out"
    argv = [a.format(cert=cert_d5, command=command) for a in argv]
    argv += [] if command == "verify" else ["-o", str(out)]
    own = command in argv  # the option is thetalattice's own
    prog = "thetalattice" if own else f"thetalattice {command}"
    argv = argv if own else [command, *argv]
    proc = subprocess.run(
        [sys.executable, "-m", "thetalattice.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    usage = "usage: thetalattice [-h] {construct," if own else f"usage: {prog} "
    assert lines[0].startswith(usage)
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert lines[-1] == f"{prog}: error: {message}"
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_verify_passes_and_prints_table(cert_d5, capsys):
    code, out, _ = run(capsys, "verify", str(cert_d5))
    assert code == 0
    assert "VERDICT: PASS" in out
    assert "ratio" in out


def test_verify_names_census_dfs_route(cert_d5, capsys):
    code, out, _ = run(capsys, "verify", str(cert_d5))
    assert code == 0
    lines = out.splitlines()
    assert "route: census+dfs" in lines
    assert "constraint cycles: 330" in lines


def test_verify_names_census_only_route(tmp_path, capsys):
    """Above DFS_LIMIT (d = 21) the census alone decides, and the
    constraint count printed is the closed form, not an enumeration."""
    path = tmp_path / "cert_d21.json"
    assert main(["construct", "--d", "21", "--seed", "1", "-o", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "route: census-only" in lines
    assert "constraint cycles: 10244610 (closed-form value, not enumerated)" in lines
    assert "VERDICT: PASS" in lines


def test_verify_computes_the_census_once(cert_d5, tmp_path, capsys, monkeypatch):
    """One voltage census serves the flags and the summary table, at s > 3
    and at s <= 3 alike, and verify builds no cover and runs no explicit
    census; report too computes it once, for its verdict and its table."""
    # the package re-exports functions named like some of its modules
    modules = [importlib.import_module(f"thetalattice.{m}") for m in ("cli", "certify")]
    calls = []
    original = modules[0].voltage_census

    def counted(base, volt):
        calls.append(volt.s)
        return original(base, volt)

    def unused(*args):
        raise AssertionError("verify and report build no cover and run no explicit census")

    for mod in modules:
        monkeypatch.setattr(mod, "voltage_census", counted)
    monkeypatch.setattr(modules[0], "derived_cover", unused)
    monkeypatch.setattr(modules[0], "census_of_graph", unused)
    data = json.loads(cert_d5.read_text())
    data["s"], data["level_bits"] = 3, data["level_bits"][:3]
    small = tmp_path / "cert_d5_s3.json"
    small.write_text(json.dumps(data))
    for command, path, marker in (
        ("verify", cert_d5, "ratio"),
        ("verify", small, "VERDICT: FAIL"),
        ("report", cert_d5, "ratio"),
        ("report", small, "VERDICT: FAIL"),
    ):
        calls.clear()
        _, out, _ = run(capsys, command, str(path))
        assert marker in out
        assert len(calls) == 1


@pytest.mark.parametrize("d", [5, 6, 7])
def test_short_closed_walks_move_each_axis_at_most_one_step(d):
    """Why the n = 2 torus is exact, so that its census is 2^3 times the
    voltage census, as every larger side's is n^3 times it, and the
    character-sum route of ROADMAP direction 12 may count over Z_2^3: every
    closed walk of length 4 or 6 of the base graph with no immediate
    reversal (across the closing step too) moves each axis by -1, 0 or 1,
    so none wraps to zero displacement on the n = 2 torus."""
    base, n = BaseGraph(d), 2 * d
    nbrs = {v: [u for u in range(n) if (u < d) != (v < d)] for v in range(n)}
    step = {(u, v): edge_disp(base, u, v) for u in range(n) for v in nbrs[u]}
    for length in (4, 6):
        # (first step, previous vertex, current vertex, displacement so far)
        walks = {((u, v), u, v, step[u, v]) for u, v in step}
        for _ in range(length - 1):
            walks = {
                (first, cur, w, tuple(a + b for a, b in zip(disp, step[cur, w])))
                for first, prev, cur, disp in walks
                for w in nbrs[cur]
                if w != prev
            }
        closed = {disp for (u, v), prev, cur, disp in walks if cur == u and prev != v}
        assert {x for disp in closed for x in disp} == {-1, 0, 1}


def test_verify_detects_tampering(cert_d5, tmp_path, capsys):
    """A zeroed stage never changes its level bit, so the lattice falls
    apart.  (A single flipped bit is not enough: the Wenger stages have
    slack, and 39 of the 90 single-bit flips on non-central edges of this
    certificate leave every flag true.)"""
    data = json.loads(cert_d5.read_text())
    data["level_bits"][0] = "0" * len(data["level_bits"][0])
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "VERDICT: FAIL" in out


def test_verify_rejects_a_false_constraint_count(cert_d5, tmp_path, capsys):
    data = json.loads(cert_d5.read_text())
    data["constraint_count"] = 12_345
    claimed = tmp_path / "claims_12345.json"
    claimed.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(claimed))
    assert code == 1
    lines = out.splitlines()
    assert "constraint count mismatch: certificate claims 12345, recomputed 330" in lines
    assert lines[-1] == "VERDICT: FAIL"


_TABLE_HEADER = ["d", "s", "c4_bar", "c6_bar", "theta_bar", "ratio", "d6", "sign"]


def _report_fails(capsys, path, out_path, *lines):
    """report on path exits 1 and prints exactly these lines: the recomputed
    flags line, any mismatch line, then VERDICT: FAIL, with no table; it
    writes no -o file."""
    code, out, err = run(capsys, "report", str(path), "-o", str(out_path))
    assert (code, err) == (1, "")
    assert out.splitlines() == [*lines, "VERDICT: FAIL"]
    assert not out_path.exists()


def test_report_fails_a_certificate_with_zeroed_stages(tmp_path, capsys):
    """The d = 10 certificate with every stage zeroed, whose flags still
    claim validity: report decides it on its census as verify does, so both
    exit 1, and report prints the recomputed flags and no d6."""
    path = tmp_path / "cert_d10.json"
    assert main(["construct", "--d", "10", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    data["level_bits"] = ["0" * len(stage) for stage in data["level_bits"]]
    assert all(data["flags"].values())
    path.write_text(json.dumps(data))
    capsys.readouterr()
    false = dict.fromkeys(data["flags"], False)
    _report_fails(capsys, path, tmp_path / "report.json", f"recomputed flags: {false}")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and f"recomputed flags: {false}" in out.splitlines()


def test_report_rejects_a_false_constraint_count(cert_d5, tmp_path, capsys):
    data = json.loads(cert_d5.read_text())
    data["constraint_count"] = 12_345
    claimed = tmp_path / "claims_12345.json"
    claimed.write_text(json.dumps(data))
    _report_fails(
        capsys,
        claimed,
        tmp_path / "report.json",
        f"recomputed flags: {data['flags']}",
        "constraint count mismatch: certificate claims 12345, recomputed 330",
    )


def test_report_rejects_false_flags(cert_d5, tmp_path, capsys):
    """A valid voltage whose file claims a false flag: the recomputed flags
    differ from the file's, so report exits 1 as verify does."""
    data = json.loads(cert_d5.read_text())
    data["flags"]["no_zero_voltage_stray4s"] = False
    path = tmp_path / "false_flag.json"
    path.write_text(json.dumps(data))
    true = dict.fromkeys(data["flags"], True)
    _report_fails(capsys, path, tmp_path / "report.json", f"recomputed flags: {true}")
    assert run(capsys, "verify", str(path))[0] == 1


def test_report_agrees_with_verify_on_every_single_bit_flip(cert_d5, tmp_path, capsys):
    """Each of the 90 single-bit flips on the 15 non-central edges of the
    d = 5 certificate (6 stages): report exits with verify's code, and the
    51 flips that verify fails make report exit 1 with no table and no -o
    file.  The other 39 leave every flag true, as the Wenger stages have
    slack, and report writes its summary."""
    cert = LiftCertificate.from_json(cert_d5.read_text())
    path, out_path = tmp_path / "flipped.json", tmp_path / "report.json"
    failed = 0
    for c, j, k in itertools.product(range(5), range(2, 5), range(cert.s)):
        masks = cert.volt.masks.copy()
        masks[c, j] ^= 1 << k
        path.write_text(cert._replace(volt=VoltageAssignment(cert.s, masks)).to_json())
        verify_code = run(capsys, "verify", str(path))[0]
        code, out, _ = run(capsys, "report", str(path), "-o", str(out_path))
        assert code == verify_code in (0, 1), (c, j, k)
        assert out_path.exists() == (code == 0)
        assert (out.splitlines()[0].split() == _TABLE_HEADER) == (code == 0)
        out_path.unlink(missing_ok=True)
        failed += code
    assert failed == 51


def _drop(key):
    def edit(data):
        del data[key]
    return edit


def _set(key, value):
    def edit(data):
        data[key] = value(data) if callable(value) else value
    return edit


def _first_stage(text):
    def edit(data):
        data["level_bits"][0] = text(data["level_bits"][0])
    return edit


def _extra_stages(data):
    # one stage beyond max_connected_stages(5) = 9, every stage well formed
    data["level_bits"] += ["0" * 25] * (10 - data["s"])
    data["s"] = 10


def _unknown_role(data):
    data["edge_order"][3] = ["c1", "f9"]


def _repeated_edge(data):
    data["edge_order"][3] = data["edge_order"][2]


def _permuted_order(data):
    order = data["edge_order"]
    order[2], order[3] = order[3], order[2]


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("verify", _drop("flags"), "missing flags"),
        ("verify", _drop("seed"), "missing seed"),
        ("verify", _set("s", lambda data: data["s"] + 3), "stages in level_bits"),
        ("verify", _extra_stages, "more than the 9"),
        ("verify", _first_stage(lambda row: row[:-1]), "has 24 bits for 25 edges"),
        ("verify", _first_stage(lambda row: row.replace("1", "2")), "other than 0 and 1"),
        ("verify", _unknown_role, "edge_order entry 3 is (c1, f9), not the canonical (c1, vy)"),
        ("verify", _repeated_edge, "edge_order entry 3 is (c1, vx), not the canonical (c1, vy)"),
        ("verify", _permuted_order, "edge_order entry 2 is (c1, vy), not the canonical (c1, vx)"),
        ("verify", _set("flags", {"no_zero_voltage_hexes": True}), "flags must be"),
        ("verify", _set("d", "5"), "d must be an integer"),
        ("verify", _first_stage(lambda row: "1" + row[1:]), "central edge (0, 5) must carry zero bits"),
        ("report", _first_stage(lambda row: "1" + row[1:]), "central edge (0, 5) must carry zero bits"),
        ("report", _unknown_role, "edge_order entry 3 is (c1, f9), not the canonical (c1, vy)"),
        ("report", _permuted_order, "edge_order entry 2 is (c1, vy), not the canonical (c1, vx)"),
        ("embed", _first_stage(lambda row: row[:-1]), "has 24 bits for 25 edges"),
        *(
            (command, edit, message)
            for command in ("verify", "report", "embed", "export")
            for edit, message in (
                (_set("d", 10**6), "has 25 entries, but the d=1000000 base graph"),
                (_set("d", 2**70), f"the d={2**70} base graph"),
                (_set("d", 4), "has d=4, but the construction requires d >= 5"),
                (_set("edge_order", lambda data: data["edge_order"][:-1]), "has 24 entries"),
            )
        ),
        ("census", lambda data: data.clear() or data.update(d=5), "'vertices' and 'edges'"),
        ("census", lambda data: data.update(vertices=[{"id": 0}], edges=[]), "'id' and a 'role'"),
        # edit None: the input file does not exist
        ("verify", None, "No such file or directory"),
        ("report", None, "No such file or directory"),
        ("census", None, "No such file or directory"),
        ("embed", None, "No such file or directory"),
        ("export", None, "No such file or directory"),
    ],
)
def test_malformed_input_is_a_usage_error(cert_d5, tmp_path, capsys, time_limit, command, edit, message):
    path = tmp_path / "malformed.json"
    if edit is not None:
        data = json.loads(cert_d5.read_text())
        edit(data)
        path.write_text(json.dumps(data))
    code, _, err = run(capsys, *_reading(command, path))
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert message in err
    assert set(tmp_path.iterdir()) <= {path}


def _reading(command, path):
    """The argv of command reading the file path: export reads it as the
    certificate of a d = 5 full unit graph, and every command but verify
    writes its output beside it."""
    out = str(path.with_name("out"))
    if command == "export":
        return ["export", "--d", "5", "--kind", "full-unit", "--cert", str(path), "-o", out]
    return [command, str(path), *([] if command == "verify" else ["-o", out])]


@pytest.mark.parametrize("command", ["census", "verify", "report", "embed", "export"])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, time_limit, command):
    """A file of 200,000 nested brackets, too deep for the JSON parser to
    read, exits 2 with one error line naming it, no traceback and no output
    file, as every other malformed file does."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    what = "graph" if command == "census" else "certificate"
    assert run(capsys, *_reading(command, path)) == (2, "", f"error: {what} JSON is nested too deeply to parse\n")
    assert list(tmp_path.iterdir()) == [path]


def test_report_reads_the_edge_order_before_the_flags(cert_d5, tmp_path, capsys):
    """A certificate is checked whole while it is read, so one with false
    flags and a permuted edge order exits 2 (a usage error) before report
    looks at its flags, which would exit 1."""
    data = json.loads(cert_d5.read_text())
    data["flags"] = dict.fromkeys(data["flags"], False)
    _permuted_order(data)
    path = tmp_path / "both.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "report", str(path)) == (
        2, "", "error: certificate edge_order entry 2 is (c1, vy), not the canonical (c1, vx)\n"
    )


@pytest.fixture(scope="module")
def cert_d10_s69():
    """The d = 10 Wenger certificate (s = 8) as a JSON object, extended by
    61 stages of random bits to max_connected_stages(10) = 69, with the
    central edges (white positions 0 and 1) left at '0'."""
    data = json.loads(certify(10).to_json())
    rng = random.Random(69)
    data["level_bits"] += [
        "".join("0" if k % 10 < 2 else str(rng.getrandbits(1)) for k in range(100)) for _ in range(69 - data["s"])
    ]
    data["s"] = 69
    return data


def _cut(data, s, path):
    """Write the certificate data cut to its first s stages to path."""
    path.write_text(json.dumps({**data, "s": s, "level_bits": data["level_bits"][:s]}))
    return path


@pytest.mark.parametrize("s", [62, 69])
def test_certificates_above_61_stages_are_refused(cert_d10_s69, tmp_path, capsys, time_limit, s):
    """A d = 10 certificate of 62 or 69 stages, within
    max_connected_stages(10) = 69 but above MAX_STAGES = 61, is refused
    as it is read by every command that reads one: exit 2, one line that
    names the limit, no output file.  Cut to 61 stages, it passes."""
    path = _cut(cert_d10_s69, s, tmp_path / f"cert_s{s}.json")
    out = tmp_path / "out"
    for argv in (
        ["verify", str(path)],
        ["report", str(path), "-o", str(out)],
        ["embed", str(path), "--trunc-s", "2", "-o", str(out)],
        ["export", "--d", "10", "--kind", "full-unit", "--cert", str(path), "--trunc-s", "2", "-o", str(out)],
    ):
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (2, f"error: certificate has s={s} stages, above the limit of 61\n"), argv
        assert "VERDICT" not in stdout
        assert list(tmp_path.iterdir()) == [path]
    code, stdout, err = run(capsys, "verify", str(_cut(cert_d10_s69, 61, tmp_path / "cert_s61.json")))
    assert (code, err) == (0, "")
    assert "certificate: d=10 s=61 " in stdout and stdout.endswith("VERDICT: PASS\n")


@pytest.fixture(scope="module")
def full_unit_d5(cert_d5, tmp_path_factory):
    stem = tmp_path_factory.mktemp("graphs") / "full_unit_d5"
    argv = ["export", "--d", "5", "--kind", "full-unit", "--cert", str(cert_d5), "-o", str(stem)]
    assert main(argv) == 0
    path = stem.with_suffix(".json")
    assert main(["census", str(path)]) == 0  # the unmutated export is valid
    return path


def _vertex(key, value):
    def edit(data):
        data["vertices"][0][key] = value
    return edit


def _levels(level):
    def edit(data):
        for rec in data["vertices"]:
            rec["level"] = level
    return edit


def _edge(value):
    def edit(data):
        data["edges"][0] = value(data) if callable(value) else value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edge(None), "pairs of integer vertex ids"),
        (_set("edges", None), "'vertices' and 'edges' lists"),
        (_set("vertices", {}), "'vertices' and 'edges' lists"),
        (_vertex("role", 7), "roles must be strings"),
        (_vertex("id", "0"), "ids must be integers"),
        (_vertex("id", True), "ids must be integers"),
        (_edge([0.5, 1]), "pairs of integer vertex ids"),
        (_edge([0, 1, 2]), "pairs of integer vertex ids"),
        (_edge([0, True]), "pairs of integer vertex ids"),
        (_vertex("level", 3), "strings of 0s and 1s"),
        (_vertex("level", "012"), "strings of 0s and 1s"),
        (_vertex("level", "0"), "all of one length"),
        (_vertex("cell", "abc"), "triples of integers"),
        (_vertex("cell", [0, 0]), "triples of integers"),
        (_vertex("cell", [0, 0, 1.0]), "triples of integers"),
        (_vertex("role", "f0"), "needs an index"),
        (_vertex("role", "q"), "unknown role tag"),
        (_vertex("role", "c01"), "is not written as 'c1'"),
        (_edge([3, 3]), "self-loop"),
        (_edge(lambda data: [0, len(data["vertices"])]), "out of range"),
        (_edge(lambda data: data["edges"][1]), "duplicate edge"),
        (_set("d", None), "not a non-negative integer"),
        (_set("d", 5.0), "not a non-negative integer"),
        (_vertex("cell", [2**70, 0, 0]), "integers within int64"),
        (_vertex("cell", [0, -(2**63) - 1, 0]), "integers within int64"),
        (_edge([0, 2**70]), f"edge (0,{2**70}) out of range"),
        (_edge([-(2**70), 0]), f"edge ({-(2**70)},0) out of range"),
        (_vertex("id", 2**70), "dense 0..n-1"),
        (_levels("0" * 64), "64 bits, above the limit of 63"),
        (_edge([2**63 + 1, 1]), f"edge ({2**63 + 1},1) out of range"),
        (_edge([2**70, 2**70]), f"self-loop at vertex {2**70}"),
        (_set("edges", lambda data: [[5, 5], [1, -(2**64)], *data["edges"][2:]]), "self-loop at vertex 5"),
        (_vertex("role", "c0"), "'c0' needs an index >= 1"),
        (_vertex("role", "c"), "'c' needs an index >= 1"),
        (_vertex("role", "t1"), "is not written as 't'"),
        (_vertex("role", "vx1"), "is not written as 'vx'"),
        (_vertex("role", "C1"), "unknown role tag 'C'"),
        (_vertex("role", "c\u0661"), "unknown role tag 'c\u0661'"),  # an Arabic-Indic digit one
        (_vertex("role", "c" + "1" * 5000), "'c' has an index of 5000 digits"),
        (_set("s", "banana"), "graph s 'banana' is not the 6-bit length of its vertex levels"),
        (_set("s", 40), "graph s 40 is not the 6-bit length of its vertex levels"),
    ],
)
def test_malformed_graph_is_a_usage_error(full_unit_d5, tmp_path, capsys, time_limit, edit, message):
    """census on a hand-mutated graph export exits 2 with one line, never
    a traceback or the verification-failure exit 1."""
    data = json.loads(full_unit_d5.read_text())
    edit(data)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "census", str(path))
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert message in err


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
_BIG = [2**63, -(2**63) - 1, 2**70, -(2**70)]


@st.composite
def _mutated_graph_files(draw, text):
    """The graph file `text` with one mutation: a dropped or duplicated
    field (a duplicated key keeps its second value, as json.loads does), a
    value of a wrong type, an id, cell, level, edge end or d out of range,
    the text cut short, or the text wrapped in 1 to 10^5 bracket pairs,
    below and above the parser's depth limit."""
    kind = draw(st.sampled_from(["drop", "duplicate", "type", "range", "truncate", "nest"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "nest":
        n = draw(st.integers(1, 10**5))
        return "[" * n + text + "]" * n
    data = json.loads(text)
    n, verts, edges = len(data["vertices"]), data["vertices"], data["edges"]
    rec, e = verts[draw(st.integers(0, n - 1))], draw(st.integers(0, len(edges) - 1))
    if kind == "range":
        field = draw(st.sampled_from(["id", "cell", "level", "levels", "end", "d"]))
        if field == "id":
            rec["id"] = draw(st.sampled_from([-1, n, *_BIG]))
        elif field == "cell":
            rec["cell"][draw(st.integers(0, 2))] = draw(st.sampled_from(_BIG))
        elif field == "level":
            rec["level"] = draw(st.sampled_from(["", "2", "01x", "0" * 64]))
        elif field == "levels":  # every level 64 bits, one above the limit
            for other in verts:
                other["level"] = "1" * 64
        elif field == "end":
            edges[e][draw(st.integers(0, 1))] = draw(st.sampled_from([-1, n, *_BIG]))
        else:
            data["d"] = draw(st.sampled_from([-1, *_BIG]))
        return json.dumps(data)
    places = {
        "d": (data, "d"),
        "vertices": (data, "vertices"),
        "edges": (data, "edges"),
        "vertex": (verts, verts.index(rec)),
        "edge": (edges, e),
        "end": (edges[e], draw(st.integers(0, 1))),
        **{key: (rec, key) for key in ("id", "role", "level", "cell")},
    }
    box, key = places[draw(st.sampled_from(sorted(places)))]
    if kind == "drop":
        del box[key]
    elif kind == "type":
        box[key] = draw(_JUNK)
    elif isinstance(box, list):
        box.insert(key, box[key])
    else:  # the key once more, after its first value
        box["\0dup"] = draw(st.one_of(st.just(box[key]), _JUNK))
        return json.dumps(data).replace('"\\u0000dup"', json.dumps(key))
    return json.dumps(data)


@pytest.fixture(scope="module")
def torus_d5_text():
    """A small valid graph file: the n = 2 torus of d = 5 at one level bit,
    208 vertices with two levels and eight cells."""
    base, volt0 = build_base_graph(5)
    return graph_to_json(derived_cover(base, random_bits_voltage(base, volt0, 1, seed=3), 2))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_census_input_fuzz(torus_d5_text, tmp_path, capsys, time_limit, data):
    """census on a mutated graph file either counts it (exit 0, nothing on
    stderr) or refuses it with exit 2 and one error line, never a
    traceback."""
    path = tmp_path / "graph.json"
    path.write_text(data.draw(_mutated_graph_files(torus_d5_text)))
    code, _, err = run(capsys, "census", str(path))
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


@st.composite
def _mutated_certificates(draw, text):
    """The certificate `text` with one mutation: a dropped or duplicated
    field, stage, edge_order entry, role or flag, a value of a wrong type, a
    d, s, count, seed, stage, role or flag out of range, the text cut
    short, or the text wrapped in 1 to 10^5 bracket pairs.  No mutation
    turns it into another valid voltage by design: a renamed role or a
    repeated entry leaves the canonical edge order."""
    kind = draw(st.sampled_from(["drop", "duplicate", "type", "range", "truncate", "nest"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "nest":
        n = draw(st.integers(1, 10**5))
        return "[" * n + text + "]" * n
    data = json.loads(text)
    stages, order, flags = data["level_bits"], data["edge_order"], data["flags"]
    i, e = draw(st.integers(0, len(stages) - 1)), draw(st.integers(0, len(order) - 1))
    end, flag = draw(st.integers(0, 1)), draw(st.sampled_from(sorted(flags)))
    if kind == "range":
        field = draw(st.sampled_from(["d", "s", "constraint_count", "seed", "stage", "role", "flag"]))
        if field == "stage":
            stage = stages[i]
            k = draw(st.integers(0, len(stage) - 1))
            stages[i] = draw(st.sampled_from([stage[:k] + "2" + stage[k + 1 :], stage[:k], stage + "0"]))
        elif field == "role":
            roles = sorted({role for pair in order for role in pair})
            order[e][end] = draw(st.sampled_from([*roles, "c99", "f9", "x", ""]).filter(lambda r: r != order[e][end]))
        elif field == "flag":
            flags[flag] = not flags[flag]
        else:
            data[field] = draw(st.sampled_from([-1, 0, 4, data[field] + 1, *_BIG]))
        return json.dumps(data)
    places = {
        **{key: (data, key) for key in data},
        "stage": (stages, i),
        "entry": (order, e),
        "role": (order[e], end),
        "flag": (flags, flag),
    }
    box, key = places[draw(st.sampled_from(sorted(places)))]
    if kind == "drop":
        del box[key]
    elif kind == "type":
        box[key] = draw(_JUNK)
    elif isinstance(box, list):
        box.insert(key, box[key])
    else:  # the key once more, after its first value
        box["\0dup"] = draw(st.one_of(st.just(box[key]), _JUNK))
        return json.dumps(data).replace('"\\u0000dup"', json.dumps(key))
    return json.dumps(data)


@pytest.fixture(scope="module")
def wenger_d5():
    """The d = 5 Wenger certificate."""
    return certify(5)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_certificate_input_fuzz(wenger_d5, tmp_path, capsys, time_limit, data):
    """verify, report, embed and export --cert on a mutated certificate exit
    with a defined code (3 only from embed) and never a traceback, verify
    passes only a file that still gives the same voltage, flags and
    constraint count, and report exits with verify's code, printing no table
    and writing no -o file when that code is 1."""
    cert = wenger_d5
    text = data.draw(_mutated_certificates(cert.to_json()))
    path = tmp_path / "cert.json"
    path.write_text(text)
    commands = {
        "verify": ["verify", str(path)],
        "report": ["report", str(path), "-o", str(tmp_path / "r.json")],
        "embed": ["embed", str(path), "--trunc-s", "1", "--max-attempts", "3", "-o", str(tmp_path / "e.json")],
        "export": ["export", "--d", "5", "--kind", "full-unit", "--cert", str(path), "--trunc-s", "1",
                   "-o", str(tmp_path / "g")],
    }
    codes = {}
    (tmp_path / "r.json").unlink(missing_ok=True)
    for name, argv in commands.items():
        code, out, err = run(capsys, *argv)
        codes[name] = code
        assert code in ((0, 1, 2, 3) if name == "embed" else (0, 1, 2)), (name, code, err)
        assert "Traceback" not in out + err, name
        if name == "report":
            assert code == codes["verify"], (code, codes["verify"], err)
            assert (tmp_path / "r.json").exists() == (code == 0)
            if code == 1:
                assert out.splitlines()[-1] == "VERDICT: FAIL" and "ratio" not in out
        if name == "verify" and code == 0:
            back = LiftCertificate.from_json(text)
            assert back.volt == cert.volt
            assert (back.flags, back.constraint_count) == (cert.flags, cert.constraint_count)


BENCHMARK_COVERS = {
    "torus_d5": ["--d", "5", "--kind", "torus", "--cert", str(PINNED / "cert_d5_seed1.json"),
                 "--trunc-s", "3", "--torus-n", "4"],
    "full_unit_d10": ["--d", "10", "--kind", "full-unit", "--cert", str(PINNED / "cert_d10_seed1.json"),
                      "--trunc-s", "8"],
}


@pytest.mark.parametrize("stem", list(BENCHMARK_COVERS))
def test_export_matches_pinned_graph_hashes(tmp_path, capsys, stem):
    """export writes the benchmark's two covers, the d = 5 torus and the
    d = 10 full unit graph, byte for byte as pinned in graph_sha256.json."""
    pinned = json.loads((PINNED / "graph_sha256.json").read_text())
    code, _, _ = run(capsys, "export", *BENCHMARK_COVERS[stem], "-o", str(tmp_path / stem))
    assert code == 0
    for suffix in (".json", ".dot"):
        written = (tmp_path / stem).with_suffix(suffix)
        assert hashlib.sha256(written.read_bytes()).hexdigest() == pinned[written.name]


@pytest.mark.parametrize("kind", ["torus", "full-unit"])
def test_export_and_census_build_no_label_objects(tmp_path, capsys, monkeypatch, cert_d5, kind):
    """Covers are built, written, read and counted from arrays alone: the
    package has no label-object class, and with the tests' VertexLabel
    unable to construct, export and census still succeed."""
    assert not hasattr(graphs, "VertexLabel")

    def refuse(self, *args, **kwargs):
        raise AssertionError("a VertexLabel was built")

    monkeypatch.setattr(VertexLabel, "__init__", refuse)
    stem = tmp_path / "cover"
    argv = ["export", "--d", "5", "--kind", kind, "--cert", str(cert_d5), "--trunc-s", "2", "-o", str(stem)]
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, "census", str(stem.with_suffix(".json")))
    assert code == 0
    monkeypatch.undo()
    assert run(capsys, "census", str(stem.with_suffix(".json")))[1] == out


def test_census_refuses_a_non_bipartite_file(tmp_path, capsys):
    """census on the d = 10, s = 3, n = 2 torus with one edge added between
    two vertices of one colour exits 2 with one line naming that edge,
    prints no traceback, writes no -o file, and takes under 1 s."""
    data, (u, v) = torus_with_same_colour_edge()
    path, out_path = tmp_path / "odd.json", tmp_path / "census.json"
    path.write_text(json.dumps(data))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "census", str(path), "-o", str(out_path))
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    assert err == f"error: census counts bipartite graphs only: edge ({u},{v}) closes an odd cycle\n"
    assert not out_path.exists()
    assert elapsed < 1.0


def test_census_on_k25_file(tmp_path, capsys):
    g = BaseGraph(5).central
    path = tmp_path / "k25.json"
    path.write_text(graph_to_json(g))
    code, out, _ = run(capsys, "census", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["c4_total"] == 10
    assert data["theta222"] == 10
    assert data["c6"] == 0


def test_report_d5(cert_d5, capsys, tmp_path):
    out_path = tmp_path / "summary.json"
    code, out, _ = run(capsys, "report", str(cert_d5), "-o", str(out_path))
    assert code == 0
    line = out.splitlines()[1].split()
    assert line[0] == "5"
    assert "1" in line  # ratio (d-2)/3 = 1
    data = json.loads(out_path.read_text())
    assert data["ratio"] == "1/1"
    assert data["sign"] == "positive"


@pytest.mark.parametrize("kappa", ["", "half", "1/0"])
def test_report_rejects_bad_kappa(cert_d5, tmp_path, capsys, kappa):
    """A --kappa that is not a rational, the empty string included, exits 2
    with one stderr line naming it and writes no summary."""
    out_path = tmp_path / "summary.json"
    code, out, err = run(capsys, "report", str(cert_d5), f"--kappa={kappa}", "-o", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot parse rational {kappa!r}")
    assert err.count("\n") == 1
    assert not out_path.exists()


def test_construct_then_report_below_the_sign_flip(tmp_path, capsys):
    """construct, then report -o, at d = 5 and 6: the order-6 coefficient
    is positive below d = 10, in the table and in the JSON."""
    for d in (5, 6):
        cert, summary = tmp_path / f"cert_d{d}.json", tmp_path / f"report_d{d}.json"
        assert main(["construct", "--d", str(d), "-o", str(cert)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "report", str(cert), "-o", str(summary))
        assert code == 0
        header, row = out.splitlines()
        assert header.split() == _TABLE_HEADER
        assert row.split()[0] == str(d) and row.split()[-1] == "positive"
        data = json.loads(summary.read_text())
        assert (data["d"], data["sign"]) == (d, "positive")
        assert Fraction(data["d6"]) > 0


def test_construct_then_embed_writes_an_obj(tmp_path, capsys):
    """construct --d 5, then embed --trunc-s 2 --obj: the placement
    checklist holds and the OBJ file starts with a vertex line."""
    cert, out, obj = tmp_path / "cert_d5.json", tmp_path / "demo.json", tmp_path / "demo.obj"
    assert main(["construct", "--d", "5", "-o", str(cert)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(
        capsys, "embed", str(cert), "--trunc-s", "2", "--seed", "3", "-o", str(out), "--obj", str(obj)
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("good try for d=5 s=2 after ")
    assert lines[0].endswith("; 52 vertices, 100 edges")
    checklist = next(line for line in lines if line.startswith("placement checklist: "))
    assert "False" not in checklist
    assert obj.read_text().startswith("v ")


def test_embed_runs_and_roundtrips(cert_d5, tmp_path, capsys):
    out = tmp_path / "embedding.json"
    obj = tmp_path / "embedding.obj"
    code, stdout, _ = run(
        capsys,
        "embed",
        str(cert_d5),
        "--trunc-s",
        "2",
        "--seed",
        "3",
        "-o",
        str(out),
        "--obj",
        str(obj),
    )
    assert code == 0
    assert "good try" in stdout
    data = json.loads(out.read_text())
    assert data["seed"] == 3
    assert len(data["points"]) == 4 * 13
    assert obj.read_text().startswith("v ")



def test_embed_writes_the_pinned_embedding(tmp_path, capsys):
    """embed on the benchmark's pinned d = 5 certificate writes the pinned
    embedding file byte for byte, and prints a checklist that parses with
    ast.literal_eval into four Python bools, all true (a numpy bool would
    print as np.True_ and not parse)."""
    out = tmp_path / "embed.json"
    code, stdout, _ = run(
        capsys, "embed", str(PINNED / "cert_d5_seed1.json"), "--trunc-s", "4", "--seed", "1", "-o", str(out)
    )
    assert code == 0
    assert out.read_bytes() == (PINNED / "embed_d5_s4_seed1.json").read_bytes()
    line = next(ln for ln in stdout.splitlines() if ln.startswith("placement checklist: "))
    checklist = ast.literal_eval(line.removeprefix("placement checklist: "))
    assert len(checklist) == 4
    assert all(value is True for value in checklist.values())


@pytest.mark.parametrize(
    "resolution, message",
    [
        ("0", "must be positive"),
        ("-1/8", "must be positive"),
        ("1/0", "cannot parse rational"),
        ("half", "cannot parse rational"),
        (f"1/{2**40 + 1}", "above 2^40"),
    ],
)
def test_embed_rejects_bad_grid_resolution(cert_d5, tmp_path, capsys, resolution, message):
    code, _, err = run(
        capsys, "embed", str(cert_d5), "--trunc-s", "0",
        f"--grid-resolution={resolution}", "-o", str(tmp_path / "e.json"),
    )
    assert code == 2
    assert message in err
    assert err.count("\n") == 1


def test_negative_trunc_s_is_usage_error(cert_d5, tmp_path, capsys):
    for argv in (
        ["embed", str(cert_d5), "-o", str(tmp_path / "e.json")],
        ["export", "--d", "5", "--kind", "full-unit", "--cert", str(cert_d5), "-o", str(tmp_path / "g")],
    ):
        code, _, err = run(capsys, *argv, "--trunc-s", "-1")
        assert code == 2
        assert "negative number of lift stages" in err

@pytest.mark.parametrize(
    "kind, option",
    [
        *((kind, option) for kind in ("root", "central", "base") for option in ("--cert", "--trunc-s")),
        *((kind, "--torus-n") for kind in ("root", "central", "base", "full-unit")),
        *((kind, "--trunc-s") for kind in ("full-unit", "torus")),
    ],
)
def test_export_refuses_options_its_kind_does_not_use(tmp_path, capsys, kind, option):
    """An option the kind never reads exits 2 with one line naming both,
    before the certificate is opened (it does not exist) or anything is
    written.  The covers read --trunc-s only to cut a certificate, so
    without --cert it is refused with one line naming it."""
    value = {"--cert": str(tmp_path / "missing.json"), "--trunc-s": "1", "--torus-n": "1"}[option]
    stem = tmp_path / "g"
    code, out, err = run(capsys, "export", "--d", "5", "--kind", kind, option, value, "-o", str(stem))
    assert code == 2 and out == ""
    if option == "--trunc-s" and kind in ("full-unit", "torus"):
        assert err == f"error: {option} is not used without --cert\n"
    else:
        assert err == f"error: {option} is not used by --kind {kind}\n"
    assert not stem.with_suffix(".json").exists()


def test_export_kinds(tmp_path, capsys):
    for kind, expect_v in (("root", 13), ("central", 7), ("base", 10), ("torus", 80)):
        stem = tmp_path / f"{kind}_graph"
        code, _, _ = run(
            capsys, "export", "--d", "5", "--kind", kind, "-o", str(stem)
        )
        assert code == 0
        data = json.loads(stem.with_suffix(".json").read_text())
        assert len(data["vertices"]) == expect_v
        assert stem.with_suffix(".dot").read_text().startswith("graph")


# sha256 of the root and central exports as written when the root unit graph
# had a label-object builder of its own; derived_cover at s = 0 and
# BaseGraph.central must write the same bytes
ROOT_AND_CENTRAL_SHA256 = {
    "root_d5.json": "b1e936f3fac933919bf45e9026bd5d01b41d5b437a60407152fca7b1303138c3",
    "root_d5.dot": "7db6dac069fb0c070e5a6c24108a373b1a5ef6da2ceb37b80bcd3d6d8fbcba63",
    "root_d6.json": "8b80302d22d71823beeb01a6314fac298971056774cb133aa7a45980fea7f2ad",
    "root_d6.dot": "d9e3db0451436540e3e66ebf10895212f731b72c53f824ee5f1f4be935ffa6bd",
    "root_d10.json": "392095f6e25ac6faa6a6fbc01464b30a3d7079ddaf908e186c5e348679c29abb",
    "root_d10.dot": "b335ff7d6d024e31e0fe6d396cfe62259fa68476138321f3e7698df873982b9a",
    "central_d5.json": "fab3f6af707e34a93dcc4a39737d4a1c79d225a667845b9f34ab7b7954e51cb6",
    "central_d5.dot": "493d14a52a36f1333d41ab579cf211c20c8e6a3e906b232106ef6c2622ba1c59",
    "central_d6.json": "b206f6111aed2df99814cc58a32f9a34b64d2aac9c19e134080b0dbe316709fb",
    "central_d6.dot": "bbb89efeb7bbecb26ce8a2850293e8f0d16cf5af57297baef20d067476b7d4b0",
    "central_d10.json": "74e072f45e4ed53e5ec692ae50336824dc827b00ff706fc3337b9a191e46ab2d",
    "central_d10.dot": "8b8df8bbcf7df49937c241d397ebe428b23fe11abf4d9634315c801af4806d21",
}


@pytest.mark.parametrize("kind", ["root", "central"])
@pytest.mark.parametrize("d", [5, 6, 10])
def test_export_root_and_central_match_pinned_hashes(tmp_path, capsys, kind, d):
    stem = tmp_path / f"{kind}_d{d}"
    code, _, _ = run(capsys, "export", "--d", str(d), "--kind", kind, "-o", str(stem))
    assert code == 0
    for suffix in (".json", ".dot"):
        written = stem.with_suffix(suffix)
        assert hashlib.sha256(written.read_bytes()).hexdigest() == ROOT_AND_CENTRAL_SHA256[written.name]


def test_export_full_unit_with_certificate(cert_d5, tmp_path, capsys):
    stem = tmp_path / "fug"
    code, _, _ = run(
        capsys,
        "export",
        "--d",
        "5",
        "--kind",
        "full-unit",
        "--cert",
        str(cert_d5),
        "--trunc-s",
        "3",
        "-o",
        str(stem),
    )
    assert code == 0
    data = json.loads(stem.with_suffix(".json").read_text())
    assert len(data["vertices"]) == 8 * 13
    assert data["s"] == 3


def test_exported_graph_reread_by_census(tmp_path, capsys):
    stem = tmp_path / "root"
    assert main(["export", "--d", "5", "--kind", "root", "-o", str(stem)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "census", str(stem.with_suffix(".json")))
    assert code == 0
    data = json.loads(out)
    assert data["c4_total"] == 64
    assert data["c4_central"] == 10
    assert data["c4_stray"] == 54


def test_kappa_five_halves_gives_d10(tmp_path, capsys):
    out = tmp_path / "cert10.json"
    code, stdout, _ = run(
        capsys, "construct", "--kappa", "5/2", "--seed", "1", "-o", str(out)
    )
    assert code == 0
    assert "d = 10" in stdout
    cert = LiftCertificate.from_json(out.read_text())
    assert cert.d == 10 and cert.flags.all_true
    capsys.readouterr()
    code, report_out, _ = run(capsys, "report", str(out))
    assert code == 0
    assert "-3/4000000" in report_out
    assert "negative" in report_out
    capsys.readouterr()
    code, verify_out, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "VERDICT: PASS" in verify_out
    assert "-3/4000000" in verify_out
