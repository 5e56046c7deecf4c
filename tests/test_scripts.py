"""Smoke tests: the scripts in scripts/ run end to end against the package."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_reproduce_counterexample_script(tmp_path):
    table = tmp_path / "table.json"
    lines = run_script(
        "reproduce_counterexample.py", "--dmin", "5", "--dmax", "6", "-o", str(table), cwd=tmp_path
    )
    assert any(line.startswith("d=5: certified with s=") for line in lines)
    assert any(line.startswith("d=6: certified with s=") for line in lines)
    assert "no negative order-6 coefficient in this range (expected for d < 10)" in lines
    assert f"wrote {table}" in lines
    assert table.exists()


def test_embedding_demo_script(tmp_path):
    out, obj = tmp_path / "demo.json", tmp_path / "demo.obj"
    lines = run_script(
        "embedding_demo.py", "--d", "5", "--trunc-s", "2", "-o", str(out), "--obj", str(obj), cwd=tmp_path
    )
    assert lines[0] == "full unit graph at d=5, s=2: 52 vertices, 100 edges; checking 2700 block segments"
    assert any(line.startswith("good try on attempt ") for line in lines)
    assert any(line.startswith("checklist: ") and "False" not in line for line in lines)
    assert lines[-1] == f"wrote {out} and {obj}"
    assert obj.read_text().startswith("v ")


def test_reproduce_counterexample_has_no_seed_option(tmp_path):
    """The certificate is the same for every seed, so the script takes none."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_counterexample.py"), "--dmax", "5", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed" in proc.stderr
