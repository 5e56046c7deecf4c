#!/usr/bin/env python3
"""Benchmark of the thetalattice CLI.

    python3 perfbench/run.py --workload construct-d10 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout: the package is imported from `src/` next to
this directory, never from an installed copy.  One closed-loop client calls
`thetalattice.cli.main(argv)` in-process, each command after the previous one
returned, so interpreter start-up does not swamp the work.  A pass is one
run of the workload's command sequence; passes repeat until `--seconds` is
used up, to the nearest half pass.  Every command's output is checked exactly.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics, whose times are in reference seconds: wall time corrected
for the shared host's speed (see `hostspeed.py`).  With `--trace 1`, passes
alternate untraced and traced, times are wall time, the traced passes report
per-layer metrics, and every traced pass must write byte-identical files to
the untraced pass before it.  The lines above it are for people: every metric
by name with unit and sample count, and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from hostspeed import HostSpeed  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, SetupError  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
# set-up repeats until both floors are met, so a cheap set-up still gets a
# steady median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.5
CHILD_TIMEOUT_S = 900

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}
# per-command timings (sum over a pass) reported for people by each workload
COMMAND_METRICS = ("construct_s", "verify_s", "export_s", "census_s", "embed_s")

# per-layer metrics: name -> (unit, source); a source "fn:<layer.function>"
# is the pass's time inside that function, "count:<key>" a call or derived count
PER_LAYER = {
    "certify.constraint_cycles_s": ("s", "fn:certify.constraint_cycles"),
    "certify.constraints": ("count", "count:certify.constraints"),
    "certify.search_signings_s": ("s", "fn:certify.search_signings"),
    "certify.stages": ("count", "count:certify.stages"),
    "certify.candidates_scored": ("count", "count:certify.candidates_scored"),
    "certify.mask_tests": ("count", "count:certify.mask_tests"),
    "certify.recheck_constraints_dfs_s": ("s", "fn:certify.recheck_constraints_dfs"),
    "certify.dfs_rechecks": ("count", "count:certify.recheck_constraints_dfs"),
    "certify.verify_certificate_s": ("s", "fn:certify.verify_certificate"),
    "certify.verify_certificate_calls": ("count", "count:certify.verify_certificate"),
    "certify.bits_from_stages_s": ("s", "fn:certify.bits_from_stages"),
    "census.voltage_census_s": ("s", "fn:census.voltage_census"),
    "census.voltage_census_calls": ("count", "count:census.voltage_census"),
    "census.census_s": ("s", "fn:census.census"),
    "census.classify_c4_s": ("s", "fn:census.classify_c4"),
    "census.count_c4_calls": ("count", "count:census.count_c4"),
    "census.count_c6_s": ("s", "fn:census.count_c6"),
    "census.count_theta222_s": ("s", "fn:census.count_theta222"),
    "census.graph_vertices": ("count", "count:census.graph_vertices"),
    "census.graph_edges": ("count", "count:census.graph_edges"),
    "graphs.graph_from_json_s": ("s", "fn:graphs.graph_from_json"),
    "graphs.graph_to_json_s": ("s", "fn:graphs.graph_to_json"),
    "graphs.graph_to_dot_s": ("s", "fn:graphs.graph_to_dot"),
    "graphs.build_root_unit_graph_s": ("s", "fn:graphs.build_root_unit_graph"),
    "voltage.derived_torus_s": ("s", "fn:voltage.derived_torus"),
    "voltage.full_unit_graph_s": ("s", "fn:voltage.full_unit_graph"),
    "voltage.cover_vertices": ("count", "count:voltage.cover_vertices"),
    "voltage.cover_edges": ("count", "count:voltage.cover_edges"),
    "voltage.build_base_graph_calls": ("count", "count:voltage.build_base_graph"),
    "voltage.to_voltage_s": ("s", "fn:voltage.to_voltage"),
    "voltage.voltage_group_generated_s": ("s", "fn:voltage.voltage_group_generated"),
    "entropy.lattice_report_s": ("s", "fn:entropy.lattice_report"),
    "embed.find_good_try_s": ("s", "fn:embed.find_good_try"),
    "embed.sample_try_s": ("s", "fn:embed.sample_try"),
    "embed.is_good_try_s": ("s", "fn:embed.is_good_try"),
    "embed.attempts": ("count", "count:embed.attempts"),
    "embed.block_segments": ("count", "count:embed.block_segments"),
    "embed.segment_pair_checks": ("count", "count:embed.segment_pair_ok"),
}


# ---------------------------------------------------------------------------
# statistics

def summarize(samples: list[float]) -> dict:
    """Median, plus the highest of p99/p90/p50 that has at least ten samples
    beyond it (none below twenty samples), and the sample count."""
    out = {"n": len(samples), "median": statistics.median(samples) if samples else None}
    ordered = sorted(samples)
    for p in (99, 90, 50):
        rank = -(-p * len(ordered) // 100)  # ceil: samples at or below the percentile
        if rank >= 1 and len(ordered) - rank >= 10:
            out[f"p{p}"] = ordered[rank - 1]
            break
    return out


def describe(name: str, unit: str, stats: dict) -> str:
    tail = next((f"{k} {v:.6g}" for k, v in stats.items() if k.startswith("p")), "no percentile with 10 samples beyond it")
    return f"  {name:<36} median {stats['median']:.6g} {unit}  ({tail}; n={stats['n']})"


# ---------------------------------------------------------------------------
# the machine

def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def machine(nproc: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# running one workload

class Package:
    """The package's modules as imported by one set-up."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "thetalattice" or m.startswith("thetalattice.")]:
            del sys.modules[name]
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"thetalattice.{layer}"))
        origin = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"thetalattice imported from {origin}, not from {SRC}")


def run_command(tl, cmd, host: HostSpeed, reference: str) -> tuple[float, list[str]]:
    """Run one command; return its time in reference seconds of the named
    loop and its problems."""
    out, err = io.StringIO(), io.StringIO()
    mark = host.mark()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tl.cli.main(cmd.argv)
    except Exception as exc:  # a crash is a failed command, not a crashed benchmark
        return host.since(mark, reference)[1], [f"{cmd.argv[0]} raised {type(exc).__name__}: {exc}"]
    elapsed = host.since(mark, reference)[1]
    try:
        problems = cmd.check(rc, out.getvalue())
    except (OSError, ValueError, KeyError, TypeError, SyntaxError) as exc:
        problems = [f"checking {cmd.argv[0]} raised {type(exc).__name__}: {exc}"]
    if problems and err.getvalue():
        problems.append("stderr: " + err.getvalue().strip().splitlines()[-1])
    return elapsed, problems


def output_hashes(work: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(work.iterdir())}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    # end-to-end times are in reference seconds; traced runs report wall time
    loops = [] if trace else list(dict.fromkeys(["interpreter", workload.reference]))
    with HostSpeed(loops) as host:
        return _run_workload(workload, seed, seconds, trace, host)


def _run_workload(workload, seed: int, seconds: float, trace: bool, host: HostSpeed) -> dict:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times: list[float] = []
    setup_wall: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_wall) < SETUP_MIN_SECONDS:
        mark = host.mark()
        tl = Package()
        expected = workload.setup(tl)
        wall, ref = host.since(mark, "interpreter")
        setup_times.append(ref)
        setup_wall.append(wall)
        gc.collect()  # free the previous import's modules so peak RSS is one set-up's

    tracer = Tracer() if trace else None

    pass_times = {False: [], True: []}  # wall time, for the stop rule and tracing overhead
    pass_ref: list[float] = []  # untraced passes in reference seconds
    command_times: dict[str, list[float]] = {}
    facts: dict[str, list[int]] = {}
    layer_samples: dict[str, list[float]] = {}
    attempted = failed = 0
    problems: list[str] = []
    reference_hashes = None
    spans = []
    start = time.perf_counter()
    while True:
        traced = trace and len(pass_times[False]) > len(pass_times[True])
        if traced:
            tracer.install()
        commands = workload.commands(expected, seed, work)
        per_command: dict[str, float] = {}
        failed_here = 0
        mark = host.mark()
        try:
            for cmd in commands:
                elapsed, cmd_problems = run_command(tl, cmd, host, workload.reference)
                per_command[cmd.metric] = per_command.get(cmd.metric, 0.0) + elapsed
                if cmd_problems:
                    failed_here += 1
                    problems += [f"{cmd.argv[0]}: {p}" for p in cmd_problems]
        finally:
            if traced:
                tracer.uninstall()
        wall, ref = host.since(mark, workload.reference)
        pass_times[traced].append(wall)
        if not traced:
            pass_ref.append(ref)
        for metric, value in per_command.items():
            command_times.setdefault(metric, []).append(value)
        if not problems:
            for name, value in workload.facts(work).items():
                facts.setdefault(name, []).append(value)

        hashes = output_hashes(work)
        if trace:
            if not traced:
                reference_hashes = hashes
            elif hashes != reference_hashes:
                differ = sorted(k for k in hashes.keys() | reference_hashes.keys()
                                if hashes.get(k) != reference_hashes.get(k))
                problems.append(f"traced pass wrote different files: {differ}")
                failed_here = len(commands)  # every command's output is suspect
            if traced:
                fn_time, self_time, counts, records = tracer.take()
                spans.append(records)
                for name, (_, source) in PER_LAYER.items():
                    kind, key = source.split(":", 1)
                    value = fn_time.get(key, 0.0) if kind == "fn" else counts.get(key, 0)
                    layer_samples.setdefault(name, []).append(value)
                tries = counts.get("embed.attempts", 0)
                layer_samples.setdefault("embed.good_try_ratio", []).append(
                    counts.get("embed.good_tries", 0) / tries if tries else 0.0)
                for layer, value in self_time.items():
                    layer_samples.setdefault(f"{layer}.self_s", []).append(value)

        attempted += len(commands)
        failed += failed_here
        if problems:
            break
        # stop once another pass would, at the median pace, end more than half
        # a pass after --seconds: on average a run then measures --seconds
        elapsed = time.perf_counter() - start
        half_pass = statistics.median(pass_times[False] + pass_times[True]) / 2
        if (not trace or pass_times[True]) and elapsed + half_pass > seconds:
            break

    if trace:
        with open(work / "spans.jsonl", "w") as fh:
            for records in spans:
                fh.write(json.dumps(records) + "\n")

    return {
        "setup": setup_times,
        "setup_wall": setup_wall,
        "passes": pass_times,
        "passes_ref": pass_ref,
        "host": host.summary(),
        "commands": command_times,
        "facts": facts,
        "layers": layer_samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(workload, seed: int, trace: bool, raw: dict, info: dict) -> dict:
    """Print the human-readable lines; return the metrics of the result line."""
    print(f"workload {workload.name} (seed {seed}, tracing {'on' if trace else 'off'}): {workload.why}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"closed loop, one client; commands attempted {raw['attempted']}, failed {raw['failed']}, "
          f"failed_frac {raw['failed'] / max(raw['attempted'], 1):.6g}")
    for p in raw["problems"]:
        print(f"  FAILED {p}")
    untraced = summarize(raw["passes"][False])
    metrics = {}
    if not trace:
        setup = summarize(raw["setup"])
        passes = summarize(raw["passes_ref"])
        host = raw["host"]
        speeds = ", ".join(f"{name} loop {v['mean_speed']:.4g} ({v['samples']} samples)"
                           for name, v in host.items() if name != "sampling_s")
        print(f"host speed: {speeds}; {host['sampling_s']:.3g} s spent sampling")
        print(f"times are reference seconds (wall time x host speed) unless marked wall: "
              f"set-up of the interpreter loop, passes and commands of the {workload.reference} loop")
        print("end-to-end:")
        end_to_end = {"setup_s": setup["median"], "pass_s": passes["median"], "peak_rss_mib": raw["peak_rss_mib"]}
        print(describe("setup_s", "s", setup))
        print(describe("pass_s", "s", passes))
        print(f"  {'peak_rss_mib':<36} {raw['peak_rss_mib']:.6g} MiB")
        print(describe("setup_s (wall)", "s", summarize(raw["setup_wall"])))
        print(describe("pass_s (wall)", "s", untraced))
        for name in COMMAND_METRICS:
            if name in raw["commands"]:
                print(describe(name, "s", summarize(raw["commands"][name])))
        for name, values in raw["facts"].items():
            print(describe(name, "count", summarize(values)))
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    elif raw["passes"][True]:
        traced = summarize(raw["passes"][True])
        overhead = traced["median"] - untraced["median"]
        print(f"tracing overhead: traced pass median {traced['median']:.6g} s (n={traced['n']}) - "
              f"untraced {untraced['median']:.6g} s (n={untraced['n']}) = {overhead:.6g} s")
        print("per-layer (median over traced passes, per pass):")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        units["embed.good_try_ratio"] = "ratio"
        for layer in LAYERS:
            units[f"{layer}.self_s"] = "s"
        for name, unit in units.items():
            stats = summarize(raw["layers"][name])
            print(describe(name, unit, stats))
            value = stats["median"]
            if unit == "count":
                value = int(value) if float(value).is_integer() else value
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def run_one(args) -> int:
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    info = machine(nproc)
    workload = WORKLOADS[args.workload]
    try:
        raw = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    metrics = report(workload, args.seed, bool(args.trace), raw, info)
    correct = raw["failed"] == 0
    result = {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": info, "host_speed": raw["host"],
              "samples": {"setup_s": raw["setup"], "setup_wall_s": raw["setup_wall"],
                          "pass_s": raw["passes_ref"], "pass_wall_s": raw["passes"][False],
                          "traced_pass_wall_s": raw["passes"][True], **raw["commands"],
                          **raw["facts"]},
              "problems": raw["problems"], **result}
    (WORK / workload.name / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed passed to construct/embed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "thetalattice" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'thetalattice'}; run from a checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
