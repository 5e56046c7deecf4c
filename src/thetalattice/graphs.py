"""Explicit finite labeled graphs: the root unit graph, central subgraphs
and structural validators.

Vertices are dense integer ids.  Labels (role, level bitstring, integer cell)
are carried in a parallel tuple.  Graphs are immutable after construction and
all transforms return new graphs, so values can be shared freely.

Level bit order: position i of the level string records the choice made at
the i-th lift (position 0 = first lift).  When a level is interpreted as an
unsigned integer for ordering, bit i has weight 2**i.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import DegreeTooSmall, MalformedGraph

Edge = tuple[int, int]
Cell = tuple[int, int, int]

# Canonical role ranks; hub roles t/b and spoke roles c form the central
# subgraph, v* are the merged connector vertices of the quotient base graph.
ROLE_TAGS = ("c", "t", "b", "f", "lx", "ly", "lz", "rx", "ry", "rz", "vx", "vy", "vz")
_RANK = {tag: i for i, tag in enumerate(ROLE_TAGS)}
_INDEXED = {"c", "f"}
CENTRAL_TAGS = {"c", "t", "b"}


@dataclass(frozen=True)
class Role:
    """Structural role of a vertex; c/f roles carry a 1-based index."""

    tag: str
    index: int = 0

    def __post_init__(self):
        if self.tag not in _RANK:
            raise ValueError(f"unknown role tag {self.tag!r}")
        if self.tag in _INDEXED and self.index < 1:
            raise ValueError(f"role {self.tag!r} needs an index >= 1")
        if self.tag not in _INDEXED and self.index != 0:
            raise ValueError(f"role {self.tag!r} takes no index")

    @property
    def black(self) -> bool:
        return self.tag == "c"

    @property
    def rank(self) -> tuple[int, int]:
        return (_RANK[self.tag], self.index)

    def __str__(self) -> str:
        return f"{self.tag}{self.index}" if self.tag in _INDEXED else self.tag

    @classmethod
    def parse(cls, text: str) -> "Role":
        for tag in _INDEXED:
            if text.startswith(tag) and text[len(tag):].isdigit():
                return cls(tag, int(text[len(tag):]))
        return cls(text)


def level_uint(level: str) -> int:
    """Level bitstring as an unsigned integer, bit i weighted 2**i."""
    return sum(1 << i for i, ch in enumerate(level) if ch == "1")


@dataclass(frozen=True)
class VertexLabel:
    role: Role
    level: str = ""
    cell: Cell = (0, 0, 0)

    @property
    def sort_key(self):
        return (*self.role.rank, level_uint(self.level), self.cell)

    def __str__(self) -> str:
        name = str(self.role)
        if self.level:
            name += f"@{self.level}"
        if self.cell != (0, 0, 0):
            name += f"{self.cell}"
        return name


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable simple graph with optional per-vertex labels."""

    vertex_count: int
    edges: tuple[Edge, ...]
    labels: tuple[VertexLabel, ...] | None = None
    d: int | None = None

    def __post_init__(self):
        norm = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(norm))
        if self.labels is not None and len(self.labels) != self.vertex_count:
            raise ValueError("labels length != vertex count")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def degree_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for a in self.adjacency:
            hist[len(a)] = hist.get(len(a), 0) + 1
        return hist

    @cached_property
    def level_length(self) -> int:
        if self.labels is None:
            return 0
        lengths = {len(lab.level) for lab in self.labels}
        if len(lengths) > 1:
            raise MalformedGraph("inconsistent level lengths")
        return lengths.pop() if lengths else 0

    def label_index(self) -> dict[tuple, int]:
        """Map (role, level, cell) -> vertex id; requires labels."""
        if self.labels is None:
            raise MalformedGraph("graph has no labels")
        out = {}
        for v, lab in enumerate(self.labels):
            key = (lab.role, lab.level, lab.cell)
            if key in out:
                raise MalformedGraph(f"duplicate label {lab}")
            out[key] = v
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


def from_labeled_vertices(
    labels: Iterable[VertexLabel],
    edges_by_label: Iterable[tuple[VertexLabel, VertexLabel]],
    d: int | None = None,
) -> LabeledGraph:
    """Build a graph from labels, assigning ids in canonical label order."""
    labs = sorted(set(labels), key=lambda lab: lab.sort_key)
    ids = {lab: i for i, lab in enumerate(labs)}
    edges = tuple((ids[a], ids[b]) for a, b in edges_by_label)
    return LabeledGraph(len(labs), edges, tuple(labs), d)


def build_root_unit_graph(d: int) -> LabeledGraph:
    """The (2d+3)-vertex seed graph of the construction.

    Black spokes c_1..c_d; white hubs t, b; white fillers f_1..f_{d-5};
    one-sided connectors lx, ly, lz (degree 1, attached to c_1) and
    rx, ry, rz (degree d-1, attached to c_2..c_d).
    """
    if d < 5:
        raise DegreeTooSmall(f"construction requires d >= 5, got {d}")
    c = [VertexLabel(Role("c", i)) for i in range(1, d + 1)]
    t, b = VertexLabel(Role("t")), VertexLabel(Role("b"))
    f = [VertexLabel(Role("f", j)) for j in range(1, d - 4)]
    lx, ly, lz = (VertexLabel(Role(r)) for r in ("lx", "ly", "lz"))
    rx, ry, rz = (VertexLabel(Role(r)) for r in ("rx", "ry", "rz"))
    edges: list[tuple[VertexLabel, VertexLabel]] = []
    for ci in c:
        edges.append((t, ci))
        edges.append((b, ci))
        for fj in f:
            edges.append((ci, fj))
    edges += [(lx, c[0]), (ly, c[0]), (lz, c[0])]
    for ci in c[1:]:
        edges += [(rx, ci), (ry, ci), (rz, ci)]
    return from_labeled_vertices([*c, t, b, *f, lx, ly, lz, rx, ry, rz], edges, d)


def _require_central_roles(g: LabeledGraph) -> None:
    if g.labels is None:
        raise MalformedGraph("graph has no labels")
    tags = {lab.role.tag for lab in g.labels}
    if not {"c", "t", "b"} <= tags:
        raise MalformedGraph(f"central roles missing, found {sorted(tags)}")


def central_subgraph(g: LabeledGraph) -> LabeledGraph:
    """Induced structure on hub/spoke roles restricted to (t,c_i), (b,c_i) edges.

    For a lifted graph this is the disjoint union of the 2**s central copies.
    """
    _require_central_roles(g)
    assert g.labels is not None
    keep = {v for v, lab in enumerate(g.labels) if lab.role.tag in CENTRAL_TAGS}
    edges = []
    for u, v in g.edges:
        if u in keep and v in keep:
            tags = {g.labels[u].role.tag, g.labels[v].role.tag}
            if tags in ({"t", "c"}, {"b", "c"}):
                edges.append((g.labels[u], g.labels[v]))
    return from_labeled_vertices((g.labels[v] for v in keep), edges, g.d)


def two_coloring(g: LabeledGraph) -> list[int] | None:
    """A proper 2-coloring by BFS, or None if the graph is not bipartite."""
    color = [-1] * g.vertex_count
    for start in range(g.vertex_count):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g.adjacency[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


@dataclass(frozen=True)
class ValidationReport:
    simple: bool
    bipartite: bool
    roles_bipartition_ok: bool | None
    degree_histogram: dict[int, int]
    regular_ok: bool | None
    passed: bool = field(init=False)

    def __post_init__(self):
        ok = self.simple and self.bipartite
        if self.roles_bipartition_ok is not None:
            ok = ok and self.roles_bipartition_ok
        if self.regular_ok is not None:
            ok = ok and self.regular_ok
        object.__setattr__(self, "passed", ok)

    def to_dict(self) -> dict:
        return {
            "simple": self.simple,
            "bipartite": self.bipartite,
            "roles_bipartition_ok": self.roles_bipartition_ok,
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "regular_ok": self.regular_ok,
            "passed": self.passed,
        }


def validate(g: LabeledGraph, expect_regular: int | None = None) -> ValidationReport:
    """Report simplicity, bipartiteness (black = c-roles when labeled),
    the degree histogram, and optional d-regularity.  Never raises."""
    coloring = two_coloring(g)
    bipartite = coloring is not None
    roles_ok: bool | None = None
    if g.labels is not None and bipartite:
        assert coloring is not None
        # every component must color all c-roles one class and the rest the other
        roles_ok = True
        comp_seen: dict[int, int] = {}
        comp = _components(g)
        for v, lab in enumerate(g.labels):
            expected = comp_seen.get(comp[v])
            black = coloring[v] if lab.role.black else 1 - coloring[v]
            if expected is None:
                comp_seen[comp[v]] = black
            elif expected != black:
                roles_ok = False
                break
    elif g.labels is not None:
        roles_ok = False
    regular_ok = None
    if expect_regular is not None:
        regular_ok = all(len(a) == expect_regular for a in g.adjacency)
    return ValidationReport(True, bipartite, roles_ok, g.degree_histogram, regular_ok)


def _components(g: LabeledGraph) -> list[int]:
    comp = [-1] * g.vertex_count
    c = 0
    for start in range(g.vertex_count):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = c
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if comp[w] == -1:
                    comp[w] = c
                    stack.append(w)
        c += 1
    return comp


# ---------------------------------------------------------------------------
# serialization

def graph_to_json_dict(g: LabeledGraph) -> dict:
    if g.labels is None:
        raise MalformedGraph("JSON export needs a labeled graph")
    return {
        "d": g.d if g.d is not None else 0,
        "s": g.level_length,
        "vertices": [
            {
                "id": v,
                "role": str(lab.role),
                "level": lab.level,
                "cell": list(lab.cell),
            }
            for v, lab in enumerate(g.labels)
        ],
        "edges": [list(e) for e in g.edges],
    }


def _of_types(values, types: set) -> bool:
    """Whether every value has exactly one of these types, so that bool (how
    JSON true and false load) is not taken for int."""
    return set(map(type, values)) <= types


def graph_from_json_dict(data: dict) -> LabeledGraph:
    """The graph of a graph_to_json_dict record.  Anything else, such as a
    field of the wrong type, sparse ids, levels that are not 0/1 strings of
    one length, or an edge that is not a pair of distinct vertex ids, raises
    MalformedGraph."""
    if not (
        isinstance(data, dict)
        and isinstance(data.get("vertices"), list)
        and isinstance(data.get("edges"), list)
    ):
        raise MalformedGraph("graph JSON needs 'vertices' and 'edges' lists")
    if not all(isinstance(rec, dict) and "id" in rec and "role" in rec for rec in data["vertices"]):
        raise MalformedGraph("every graph vertex needs an 'id' and a 'role'")
    if not _of_types((rec["id"] for rec in data["vertices"]), {int}):
        raise MalformedGraph("vertex ids must be integers")
    verts = sorted(data["vertices"], key=lambda rec: rec["id"])
    if [rec["id"] for rec in verts] != list(range(len(verts))):
        raise MalformedGraph("vertex ids must be dense 0..n-1")
    role_texts = [rec["role"] for rec in verts]
    levels = [rec.get("level", "") for rec in verts]
    cells = [rec.get("cell", (0, 0, 0)) for rec in verts]
    if not _of_types(role_texts, {str}):
        raise MalformedGraph("vertex roles must be strings")
    roles = {}
    for text in set(role_texts):
        try:
            roles[text] = Role.parse(text)
        except ValueError as exc:
            raise MalformedGraph(f"vertex role {text!r}: {exc}") from exc
        if str(roles[text]) != text:  # such as c01, which would load as c1
            raise MalformedGraph(f"vertex role {text!r} is not written as {str(roles[text])!r}")
    if not (
        _of_types(levels, {str})
        and "".join(levels).strip("01") == ""
        and len(set(map(len, levels))) <= 1
    ):
        raise MalformedGraph("vertex levels must be strings of 0s and 1s, all of one length")
    if not (
        _of_types(cells, {list, tuple})
        and set(map(len, cells)) <= {3}
        and _of_types(itertools.chain.from_iterable(cells), {int})
    ):
        raise MalformedGraph("vertex cells must be triples of integers")
    labels = tuple(
        VertexLabel(roles[role], level, tuple(cell))
        for role, level, cell in zip(role_texts, levels, cells)
    )
    edges = data["edges"]
    if not (
        _of_types(edges, {list, tuple})
        and set(map(len, edges)) <= {2}
        and _of_types(itertools.chain.from_iterable(edges), {int})
    ):
        raise MalformedGraph("graph edges must be pairs of integer vertex ids")
    d = data.get("d", 0)
    if type(d) is not int or d < 0:
        raise MalformedGraph(f"d {d!r} is not a non-negative integer")
    try:
        return LabeledGraph(len(labels), tuple(map(tuple, edges)), labels, d or None)
    except ValueError as exc:  # a loop, a repeated edge or an id out of range
        raise MalformedGraph(str(exc)) from exc


def graph_to_json(g: LabeledGraph) -> str:
    return json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True) + "\n"


def graph_from_json(text: str) -> LabeledGraph:
    return graph_from_json_dict(json.loads(text))


def graph_to_dot(g: LabeledGraph) -> str:
    """DOT export; node labels are role@level."""
    if g.labels is None:
        raise MalformedGraph("DOT export needs a labeled graph")
    lines = ["graph lattice {"]
    for v, lab in enumerate(g.labels):
        name = str(lab.role) + (f"@{lab.level}" if lab.level else "")
        lines.append(f'  v{v} [label="{name}"];')
    for u, v in g.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
