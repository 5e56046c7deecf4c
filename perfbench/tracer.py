"""Spans and counters around the package's layers, installed from outside.

`Tracer.install()` replaces each layer module's public functions with
wrappers, everywhere the package holds a reference to them (including names
other modules imported, such as `cli.census_of_graph` or
`entropy.voltage_census`), and `uninstall()` puts the originals back.  The
package source is not edited.

A span records its name, layer, start, end and parent.  A layer's self time
is its spans' durations minus the time covered by their child spans.
Counters that need a call's arguments or result are derived after the traced
pass, so the work of deriving them falls inside no span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "thetalattice"
# `errors` does no work and is not measured
LAYERS = ("graphs", "voltage", "linalg", "certify", "census", "entropy", "embed", "cli")

# arithmetic helpers called millions of times from inner loops: a span each
# would measure the wrapper, not the work
UNTRACED = frozenset({"voltage.vadd", "voltage.vneg", "graphs.level_uint"})
# hot leaf predicate: counted, no span per call
COUNT_ONLY = frozenset({"embed.segment_pair_ok"})
# public methods traced besides module-level functions
METHODS = {"voltage": (("LiftCertificate", "to_voltage"),)}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_time", "outermost")

    def __init__(self, name: str, layer: str, parent: "Span | None", outermost: bool):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.outermost = outermost
        self.child_time = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, index: dict[int, int]) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else index[id(self.parent)],
        }


def _replay_mask_tests(constraints, stages: list[int], pool: int) -> int:
    """Candidate-by-constraint parity tests the greedy search made: per stage,
    every pool candidate is scored against every still-uncovered mask."""
    uncovered = [c.mask for c in constraints.constraints]
    tests = 0
    for sigma in stages:
        tests += pool * len(uncovered)
        uncovered = [m for m in uncovered if not (sigma & m).bit_count() & 1]
    return tests


def _derive(name: str, bound: inspect.BoundArguments, result, counts: Counter) -> None:
    a = bound.arguments
    if name == "certify.constraint_cycles":
        counts["certify.constraints"] += len(result)
    elif name == "certify.search_signings":
        pool = a["pool_size"] if a["policy"] == "greedy" else 1
        counts["certify.stages"] += len(result)
        counts["certify.candidates_scored"] += pool * len(result)
        counts["certify.mask_tests"] += _replay_mask_tests(a["constraints"], result, pool)
    elif name == "census.census":
        counts["census.graph_vertices"] += a["g"].vertex_count
        counts["census.graph_edges"] += len(a["g"].edges)
    elif name in ("voltage.derived_torus", "voltage.full_unit_graph"):
        counts["voltage.cover_vertices"] += result.vertex_count
        counts["voltage.cover_edges"] += len(result.edges)
    elif name == "embed.find_good_try":
        counts["embed.attempts"] += result[1]
        counts["embed.good_tries"] += 1
    elif name == "embed.is_good_try":
        counts["embed.block_segments"] += 27 * len(a["fug"].edges)


_DERIVED_FROM = frozenset({
    "certify.constraint_cycles",
    "certify.search_signings",
    "census.census",
    "voltage.derived_torus",
    "voltage.full_unit_graph",
    "embed.find_good_try",
    "embed.is_good_try",
})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self._stack: list[Span] = []
        self._active: Counter = Counter()
        self._returns: list[tuple[str, inspect.BoundArguments, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrapped: dict[types.FunctionType, object] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                    and f"{layer}.{name}" not in UNTRACED
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", layer, obj)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(f"{layer}.{meth}", layer, cls.__dict__[meth]))
        holders = [sys.modules[PACKAGE], *modules.values()]
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, qual: str, layer: str, fn):
        calls = self.calls
        if qual in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[qual] += 1
                return fn(*args, **kwargs)
            return counted

        stack, active, spans = self._stack, self._active, self.spans
        signature = inspect.signature(fn) if qual in _DERIVED_FROM else None
        returns = self._returns
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(qual, layer, stack[-1] if stack else None, active[qual] == 0)
            stack.append(span)
            active[qual] += 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                active[qual] -= 1
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                spans.append(span)
            calls[qual] += 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                returns.append((qual, bound, result))
            return result

        return traced

    # -- results ----------------------------------------------------------

    def take(self) -> tuple[dict[str, float], dict[str, float], Counter, list[dict]]:
        """(time per function, self time per layer, counts, span records)
        since the last call; clears the recorded spans."""
        if self._stack:
            raise RuntimeError("spans still open")
        fn_time: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            if span.outermost:
                fn_time[span.name] += span.duration
            self_time[span.layer] += span.duration - span.child_time
        counts = Counter(self.calls)
        for qual, bound, result in self._returns:
            _derive(qual, bound, result, counts)
        index = {id(s): i for i, s in enumerate(self.spans)}
        records = [s.to_dict(index) for s in self.spans]
        self.spans.clear()
        self.calls.clear()
        self._returns.clear()
        return dict(fn_time), self_time, counts, records
