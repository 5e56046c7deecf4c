"""Explicit finite labeled graphs: the array graph type and the JSON and
DOT formats.  The root unit graph is voltage.derived_cover of the base graph
at s = 0; derived_cover is the one cover builder.

Vertices are dense integer ids.  A graph is held as arrays: one sorted int64
(E, 2) edge array with u < v in every row, a role code per vertex into a
sorted table of role names, the level as an unsigned integer and an (n, 3)
int64 cell array.  Every graph carries these labels; graphs are built only
as arrays, by voltage.BaseGraph (the base graph and its central K_{2,d}),
derived_cover and graph_from_json_dict.

_Value is the one base of the hand-written value classes (LabeledGraph;
BaseGraph and VoltageAssignment in voltage, Try in embed): it sets each
field once and makes array fields read-only, so values can be shared
freely, and gives their equality, hashing and repr.

Level bit order: position i of the level string records the choice made at
the i-th lift (position 0 = first lift).  When a level is interpreted as an
unsigned integer for ordering, bit i has weight 2**i.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import MalformedGraph

Edge = tuple[int, int]

# The role tags in canonical order; c and f names add a 1-based index (c1,
# f2).  Hub roles t/b and spoke roles c form the central K_{2,d}, v* are the
# merged connector vertices of the quotient base graph.
ROLE_TAGS = ("c", "t", "b", "f", "lx", "ly", "lz", "rx", "ry", "rz", "vx", "vy", "vz")
_RANK = {tag: i for i, tag in enumerate(ROLE_TAGS)}
_INDEXED = {"c", "f"}
CENTRAL_TAGS = {"c", "t", "b"}
# levels are held in int64, so a level string has at most this many bits
MAX_LEVEL_BITS = 63


def role_tag(name: str) -> str:
    """The tag of a role name: the name without its index digits."""
    return name.rstrip("0123456789")


def role_rank(name: str) -> tuple[int, int]:
    """The canonical order of a role name: (position of its tag in
    ROLE_TAGS, its index), the index 0 for a tag that takes none.  A c or f
    name carries a 1-based index written without leading zeros (c1, f12),
    any other tag none; MalformedGraph for a name that is not so written."""
    tag = role_tag(name)
    if tag not in _RANK:
        raise MalformedGraph(f"role {name!r} has the unknown role tag {tag!r}")
    try:
        index = int(name[len(tag):] or 0)
    except ValueError:  # more digits than int() converts
        raise MalformedGraph(f"role tag {tag!r} has an index of {len(name) - len(tag)} digits") from None
    if tag in _INDEXED and index < 1:
        raise MalformedGraph(f"role {name!r} needs an index >= 1")
    spelled = f"{tag}{index}" if tag in _INDEXED else tag
    if name != spelled:  # such as c01, which would otherwise sort as c1
        raise MalformedGraph(f"role {name!r} is not written as {spelled!r}")
    return _RANK[tag], index


def level_uint(level: str) -> int:
    """Level bitstring as an unsigned integer, bit i weighted 2**i."""
    return sum(1 << i for i, ch in enumerate(level) if ch == "1")


def _level_string(level: int, length: int) -> str:
    """The level bitstring of length `length` whose bit i is bit i of level."""
    return format(level, f"0{length}b")[::-1] if length else ""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Value:
    """The base of the immutable value classes.  A subclass names its fields
    in _fields and sets them once, in __init__, with _store; after that no
    field can be changed or deleted, and no array field written into.
    Values of one class are equal when their _key(), by default the field
    values, is, and hashed by it; a class whose key is not hashable sets
    __hash__ = None."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _store(self, *values) -> None:
        """Set the fields to these values, in the order of _fields, making
        every np.ndarray read-only in place."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, _frozen(value) if isinstance(value, np.ndarray) else value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _edge_array(vertex_count: int, ends: np.ndarray) -> np.ndarray:
    """The sorted (E, 2) array of the edges given as an (E, 2) array of ends
    in any orientation and order.  ValueError names the first loop or end
    out of range in the given order, else the first repeated edge.  The
    ends are int64, or Python ints (object) when one lies outside int64,
    which is out of range and so refused before any arithmetic."""
    u, v = ends[:, 0], ends[:, 1]
    bad = (u == v) | (u < 0) | (v < 0) | (u >= vertex_count) | (v >= vertex_count)
    if bad.any():
        a, b = ends[int(np.argmax(bad))].tolist()
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        raise ValueError(f"edge ({a},{b}) out of range")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    lo, hi = np.divmod(np.sort(lo * vertex_count + hi), vertex_count)
    repeat = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if repeat.any():
        i = int(np.argmax(repeat))
        raise ValueError(f"duplicate edge {(int(lo[i]), int(hi[i]))}")
    return np.stack([lo, hi], axis=1)


class LabeledGraph(_Value):
    """Immutable simple graph with per-vertex labels, held as arrays.

    edge_array is the sorted int64 (E, 2) array of the edges (u, v), u < v.
    roles is the role_rank-sorted table of the role names the graph uses,
    and per vertex role_codes is an index into roles, levels the level as
    an unsigned integer (bit i = position i of its level string) and cells
    an (n, 3) int64 array; level_length is the length of every level string.
    The arrays are read-only.  Graphs are equal and hashed by their fields,
    the arrays by their bytes; the repr gives only the sizes and d.
    """

    __slots__ = _fields = (
        "vertex_count", "edge_array", "d", "roles", "role_codes", "levels", "level_length", "cells",
    )

    def __init__(
        self,
        vertex_count: int,
        edge_array: np.ndarray,
        d: int | None,
        roles: tuple[str, ...],
        role_codes: np.ndarray,
        levels: np.ndarray,
        level_length: int,
        cells: np.ndarray,
    ):
        """A graph from arrays already in the form the class holds (sorted,
        distinct edges u < v; role names sorted by role_rank and all used);
        nothing is checked, and the arrays are made read-only."""
        self._store(vertex_count, edge_array, d, roles, role_codes, levels, level_length, cells)

    def _key(self) -> tuple:
        arrays = (self.edge_array, self.role_codes, self.levels, self.cells)
        return (self.vertex_count, self.d, self.level_length, self.roles, *(a.tobytes() for a in arrays))

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(vertex_count={self.vertex_count}, edges={len(self.edge_array)}, d={self.d})"
        )

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edge pairs as tuples, built on each access; the package reads
        edge_array, and the benchmark's tracer reads this view."""
        return tuple(map(tuple, self.edge_array.tolist()))


def _csr(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, nbr) of the n vertices and the (E, 2) edge array ends: the
    neighbours of v, ascending, are nbr[start[v]:start[v + 1]]."""
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=start[1:])
    return start, dst[np.argsort(src * n + dst)]


def _gather(start: np.ndarray, nbr: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """The neighbours of verts, one run per vertex, concatenated."""
    lo, counts = start[verts], start[verts + 1] - start[verts]
    offset = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return nbr[offset + np.arange(len(offset))]


def _bfs(start: np.ndarray, nbr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(root, parity) per vertex of the CSR adjacency (start, nbr): root[v]
    is the smallest vertex of v's component, where a breadth-first search of
    that component starts, and parity[v] the parity of v's depth in it."""
    n = len(start) - 1
    root = np.full(n, -1, dtype=np.int64)
    parity = np.zeros(n, dtype=np.int64)
    alone = np.flatnonzero(start[1:] == start[:-1])
    root[alone] = alone
    for r in np.flatnonzero(start[1:] > start[:-1]).tolist():
        if root[r] >= 0:
            continue
        root[r], depth, frontier = r, 0, np.array([r])
        while len(frontier):
            depth ^= 1
            reached = _gather(start, nbr, frontier)
            frontier = np.unique(reached[root[reached] < 0])
            root[frontier] = r
            parity[frontier] = depth
    return root, parity


def build_root_unit_graph(d: int) -> LabeledGraph:
    """The (2d+3)-vertex seed graph of the construction: derived_cover of
    the base graph at s = 0, which splits each merged connector v* back into
    its two one-sided roles.  Kept for the benchmark, which builds it.

    Black spokes c_1..c_d; white hubs t, b; white fillers f_1..f_{d-5};
    one-sided connectors lx, ly, lz (degree 1, attached to c_1) and
    rx, ry, rz (degree d-1, attached to c_2..c_d).  DegreeTooSmall for
    d < 5.
    """
    from .voltage import build_base_graph, derived_cover  # voltage imports graphs

    return derived_cover(*build_base_graph(d))


# ---------------------------------------------------------------------------
# serialization

def _of_types(values, types: set) -> bool:
    """Whether every value has exactly one of these types, so that bool (how
    JSON true and false load) is not taken for int."""
    return set(map(type, values)) <= types


def _int64_array(values: list, count: int) -> np.ndarray:
    """The flat int64 array of count integers; OverflowError if one is
    outside int64."""
    return np.fromiter(values, dtype=np.int64, count=count)


def graph_from_json_dict(data: dict) -> LabeledGraph:
    """The graph of a graph_to_json record.  Anything else, such as a field
    of the wrong type, sparse ids, levels that are not 0/1 strings of one
    length, s if given, of at most 63 bits, a cell outside int64, or an
    edge that is not a pair of distinct vertex ids, raises MalformedGraph.
    The arrays are built straight from the lists, with no label objects."""
    if not (
        isinstance(data, dict)
        and isinstance(data.get("vertices"), list)
        and isinstance(data.get("edges"), list)
    ):
        raise MalformedGraph("graph JSON needs 'vertices' and 'edges' lists")
    verts = data["vertices"]
    if not all(isinstance(rec, dict) and "id" in rec and "role" in rec for rec in verts):
        raise MalformedGraph("every graph vertex needs an 'id' and a 'role'")
    ids = [rec["id"] for rec in verts]
    if not _of_types(ids, {int}):
        raise MalformedGraph("vertex ids must be integers")
    n = len(verts)
    if ids != list(range(n)):
        verts = sorted(verts, key=lambda rec: rec["id"])
        if [rec["id"] for rec in verts] != list(range(n)):
            raise MalformedGraph("vertex ids must be dense 0..n-1")
    role_texts = [rec["role"] for rec in verts]
    levels = [rec.get("level", "") for rec in verts]
    cells = [rec.get("cell", (0, 0, 0)) for rec in verts]
    if not _of_types(role_texts, {str}):
        raise MalformedGraph("vertex roles must be strings")
    rank = {text: role_rank(text) for text in set(role_texts)}
    if not (
        _of_types(levels, {str})
        and "".join(levels).strip("01") == ""
        and len(set(map(len, levels))) <= 1
    ):
        raise MalformedGraph("vertex levels must be strings of 0s and 1s, all of one length")
    length = len(levels[0]) if levels else 0
    if length > MAX_LEVEL_BITS:
        raise MalformedGraph(f"vertex levels have {length} bits, above the limit of {MAX_LEVEL_BITS}")
    if type(s := data.get("s", length)) is not int or s != length:
        raise MalformedGraph(f"graph s {s!r} is not the {length}-bit length of its vertex levels")
    if not (
        _of_types(cells, {list, tuple})
        and set(map(len, cells)) <= {3}
        and _of_types(itertools.chain.from_iterable(cells), {int})
    ):
        raise MalformedGraph("vertex cells must be triples of integers")
    try:
        cell_array = _int64_array(itertools.chain.from_iterable(cells), 3 * n).reshape(n, 3)
    except OverflowError:
        raise MalformedGraph("vertex cells must be triples of integers within int64") from None
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
        ends = _int64_array(itertools.chain.from_iterable(edges), 2 * len(edges)).reshape(-1, 2)
    except OverflowError:  # an end outside int64, which _edge_array refuses as out of range
        ends = np.array(edges, dtype=object).reshape(-1, 2)
    try:
        edge_array = _edge_array(n, ends)
    except ValueError as exc:  # a loop, a repeated edge or an id out of range
        raise MalformedGraph(str(exc)) from exc
    roles = tuple(sorted(rank, key=rank.__getitem__))
    code = {text: k for k, text in enumerate(roles)}
    level_value = {lev: level_uint(lev) for lev in set(levels)}
    return LabeledGraph(
        n,
        edge_array,
        d or None,
        roles,
        _int64_array(map(code.__getitem__, role_texts), n),
        _int64_array(map(level_value.__getitem__, levels), n),
        length,
        cell_array,
    )


def _json_value(text: str, what: str):
    """json.loads(text); MalformedGraph, naming what, for nesting too deep to parse."""
    try:
        return json.loads(text)
    except RecursionError:
        raise MalformedGraph(f"{what} JSON is nested too deeply to parse") from None


def graph_from_json(text: str) -> LabeledGraph:
    return graph_from_json_dict(_json_value(text, "graph"))


def _json_list(items: str, count: int) -> str:
    """A JSON list as json.dumps(indent=2) writes it one level in, from its
    items already joined with ','."""
    return f"[{items}\n  ]" if count else "[]"


# one edge and one vertex record of graph_to_json, each led by its line
# break; role names and levels are letters, digits, 0s and 1s, which JSON
# writes unescaped
_EDGE_JSON = "\n    [\n      %d,\n      %d\n    ]"
_VERTEX_JSON = (
    '\n    {\n      "cell": [\n        %d,\n        %d,\n        %d\n      ],'
    '\n      "id": %d,\n      "level": "%s",\n      "role": "%s"\n    }'
)


def _vertex_fields(n: int, *columns) -> list:
    """Per vertex, the values of the given n-long columns in order, flattened
    into one list."""
    flat = np.empty((n, len(columns)), dtype=object)
    for i, column in enumerate(columns):
        flat[:, i] = column
    return flat.ravel().tolist()


def _name_columns(g: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    """(role name, level string) of every vertex, as object arrays."""
    values, inverse = np.unique(g.levels, return_inverse=True)
    strings = np.array([_level_string(lev, g.level_length) for lev in values.tolist()], dtype=object)
    return np.array(g.roles, dtype=object)[g.role_codes], strings[inverse]


def graph_to_json(g: LabeledGraph) -> str:
    """The graph as JSON: the bytes of json.dumps(record, indent=2,
    sort_keys=True) + newline, for the record with d, s, the edges as [u, v]
    lists and the vertices as {id, role, level, cell} objects, written from
    the arrays with one format string per list."""
    n, m = g.vertex_count, len(g.edge_array)
    names, level_strings = _name_columns(g)
    fields = _vertex_fields(n, g.cells[:, 0], g.cells[:, 1], g.cells[:, 2], np.arange(n), level_strings, names)
    vertices = ",".join([_VERTEX_JSON] * n) % tuple(fields)
    edges = ",".join([_EDGE_JSON] * m) % tuple(g.edge_array.ravel().tolist())
    return (
        f'{{\n  "d": {g.d or 0},\n  "edges": {_json_list(edges, m)},\n'
        f'  "s": {g.level_length},\n  "vertices": {_json_list(vertices, n)}\n}}\n'
    )


def graph_to_dot(g: LabeledGraph) -> str:
    """DOT export; node labels are role@level."""
    n, m = g.vertex_count, len(g.edge_array)
    names, level_strings = _name_columns(g)
    if g.level_length:
        node = '  v%d [label="%s@%s"];\n'
        fields = _vertex_fields(n, np.arange(n), names, level_strings)
    else:
        node = '  v%d [label="%s"];\n'
        fields = _vertex_fields(n, np.arange(n), names)
    nodes = (node * n) % tuple(fields)
    edges = ("  v%d -- v%d;\n" * m) % tuple(g.edge_array.ravel().tolist())
    return f"graph lattice {{\n{nodes}{edges}}}\n"
