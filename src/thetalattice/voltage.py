"""The quotient base graph with displacement and level-bit voltages, its
explicit derived covers (finite tori and the full unit graph), and lift
certificates.

The base graph merges lx with rx (into vx), ly with ry, lz with rz, giving a
2d-vertex d-regular bipartite graph with d**2 edges.  Oriented edges carry a
displacement in Z^3 (nonzero only on vx->c1 = +e_x, vy->c1 = +e_y,
vz->c1 = +e_z) and an orientation-free level-bit vector in GF(2)**s (zero on
the central hub edges).  The infinite lattice is the derived cover over
Z^3 x GF(2)**s; derived_cover builds its finite quotients, the n-torus and
the full unit graph of one cube.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Mapping

import numpy as np

from . import linalg
from .errors import DegreeTooSmall, MalformedGraph, TooLarge, TorusTooSmall
from .graphs import Edge, LabeledGraph, Role

Vec3 = tuple[int, int, int]

ZERO3: Vec3 = (0, 0, 0)
UNIT: dict[str, Vec3] = {"vx": (1, 0, 0), "vy": (0, 1, 0), "vz": (0, 0, 1)}

# derived_cover refuses covers above this many vertices: about 250 bytes each
# at its peak while it builds, 110 held by the graph it returns (measured on
# the 94,208-vertex d = 10, s = 12 full unit graph)
COVER_LIMIT = 1 << 20


def vadd(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vneg(a: Vec3) -> Vec3:
    return (-a[0], -a[1], -a[2])


@dataclass(frozen=True)
class BaseGraph:
    """2d-vertex quotient graph; spokes c_1..c_d are black, the rest white.
    displacement holds the canonical displacement voltages that
    build_base_graph sets, keyed like VoltageAssignment.displacement."""

    d: int
    graph: LabeledGraph
    # determined by graph, so left out of equality and hashing
    displacement: Mapping[Edge, Vec3] = field(compare=False, repr=False)

    @cached_property
    def vertex_roles(self) -> tuple[Role, ...]:
        g = self.graph
        assert g.roles is not None
        return tuple(g.roles[code] for code in g.role_codes.tolist())

    @cached_property
    def blacks(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.vertex_roles) if r.black)

    @cached_property
    def whites(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.vertex_roles) if not r.black)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.graph.edges)}

    def role_of(self, v: int) -> Role:
        return self.vertex_roles[v]

    @cached_property
    def central_edges(self) -> frozenset[Edge]:
        out = set()
        for u, v in self.graph.edges:
            tags = {self.role_of(u).tag, self.role_of(v).tag}
            if tags in ({"t", "c"}, {"b", "c"}):
                out.add((u, v))
        return frozenset(out)

    @cached_property
    def noncentral_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.graph.edges if e not in self.central_edges)


@dataclass(frozen=True)
class VoltageAssignment:
    """Per-edge voltages: displacement (negates under orientation reversal)
    and an s-bit level mask (orientation-free), keyed by (u<v) edges."""

    s: int
    displacement: Mapping[Edge, Vec3]
    level_bits: Mapping[Edge, int]

    def disp(self, u: int, v: int) -> Vec3:
        e = (u, v) if u < v else (v, u)
        t = self.displacement.get(e, ZERO3)
        return t if u < v else vneg(t)

    def bits(self, u: int, v: int) -> int:
        e = (u, v) if u < v else (v, u)
        return self.level_bits.get(e, 0)

    def with_bits(self, s: int, level_bits: Mapping[Edge, int]) -> "VoltageAssignment":
        return VoltageAssignment(s, self.displacement, dict(level_bits))

    def truncate(self, k: int) -> "VoltageAssignment":
        """The voltage restricted to its first k lift stages; itself when
        k >= s."""
        if k < 0:
            raise ValueError(f"cannot keep a negative number of lift stages ({k})")
        if k >= self.s:
            return self
        keep = (1 << k) - 1
        return self.with_bits(k, {e: m & keep for e, m in self.level_bits.items() if m & keep})


def build_base_graph(d: int) -> tuple[BaseGraph, VoltageAssignment]:
    """Base graph plus the canonical displacement voltages (s = 0).

    Vertex ids follow the canonical role order: c_1..c_d are 0..d-1, then
    t, b, f_1..f_{d-5}, vx, vy, vz are d..2d-1, and every black is joined to
    every white.  Crossing vx->c1 gains +e_x: the merged connector vertex
    belongs to the cube where it plays the rx role.
    """
    if d < 5:
        raise DegreeTooSmall(f"construction requires d >= 5, got {d}")
    roles = (
        *(Role("c", i) for i in range(1, d + 1)),
        Role("t"),
        Role("b"),
        *(Role("f", j) for j in range(1, d - 4)),
        *(Role(tag) for tag in UNIT),
    )
    n = 2 * d
    edges = np.stack([np.repeat(np.arange(d), d), np.tile(np.arange(d, n), d)], axis=1)
    graph = LabeledGraph._of_arrays(
        n, edges, d, roles, np.arange(n), np.zeros(n, dtype=np.int64), 0, np.zeros((n, 3), dtype=np.int64)
    )
    # c1 is vertex 0, below every white; the voltage of v*->c1 is +unit
    displacement = {(0, n - 3 + k): vneg(UNIT[tag]) for k, tag in enumerate(UNIT)}
    return BaseGraph(d, graph, displacement), VoltageAssignment(0, displacement, {})


def make_bits(base: BaseGraph, s: int, level_bits: Mapping[Edge, int]) -> dict[Edge, int]:
    """Validate a level-bit map: known edges, s-bit masks, central edges zero."""
    out: dict[Edge, int] = {}
    for e, mask in level_bits.items():
        if e not in base.edge_index:
            raise ValueError(f"unknown edge {e}")
        if mask >> s:
            raise ValueError(f"mask {mask:#x} wider than s={s}")
        if e in base.central_edges and mask:
            raise ValueError(f"central edge {e} must carry zero bits")
        if mask:
            out[e] = mask
    return out


def check_cover_size(d: int, s: int, n: int | None = None) -> None:
    """TooLarge when the degree-d cover of derived_cover with s stages and
    torus side n (None: the full unit graph) could have more than
    COVER_LIMIT vertices, bounded as (n^3 or 1) * 2^s * (2d + 3)."""
    bound = (1 if n is None else n**3) * (1 << s) * (2 * d + 3)
    if bound > COVER_LIMIT:
        raise TooLarge(
            f"a cover with n={n}, s={s}, d={d} has up to {bound} vertices, "
            f"above the limit of {COVER_LIMIT}"
        )


def derived_cover(base: BaseGraph, volt: VoltageAssignment, n: int | None = None) -> LabeledGraph:
    """An explicit quotient of the derived cover, on cells x GF(2)^s.

    An edge (u,v) with displacement t and bit mask m joins (u, z, l) to
    (v, z + t, l xor m).  With n, cells are (Z_n)^3 and the result is the
    n-torus: d-regular, bipartite and simple with n^3 * 2^s * 2d vertices
    and n^3 * 2^s * d^2 edges.  With n=None there is one cell and t is
    dropped, which gives the full unit graph of a cube: each merged
    connector v* splits back into l* on its displaced edge and r* on the
    others.  At s = 0 that is the root unit graph, and in general it equals
    iterating signed 2-lifts on the root unit graph with the per-stage
    signings.  TooLarge, before anything is built, when the cover could
    have more than COVER_LIMIT vertices (check_cover_size).

    Built as arrays.  Vertex ids follow the canonical label order (role,
    level, cell): the vertex of role block k (the cover's roles in rank
    order), level l and cell (x, y, z) is k * 2^s * C + l * C + cell index,
    with C cells and cell index (x * n + y) * n + z.  Every base edge gives
    its 2^s * C cover edges in one array expression.
    """
    if n is not None and n <= 1:
        raise TorusTooSmall(
            "n must be >= 2: wrapping unit displacements at n=1 closes stray short cycles"
        )
    s = volt.s
    check_cover_size(base.d, s, n)
    pairs = base.graph.edges
    shift = np.array([volt.disp(u, v) for u, v in pairs], dtype=np.int64).reshape(-1, 3)
    mask = np.array([volt.bits(u, v) for u, v in pairs], dtype=np.int64)

    def cover_role(v: int, moved: bool) -> Role:
        """The role over base vertex v at an edge that moves (displacement
        nonzero) or not, which picks l* or r* for a connector."""
        r = base.role_of(v)
        if n is None and r.tag in UNIT:
            return Role(("l" if moved else "r") + r.tag[1])
        return r

    ends = [
        (cover_role(u, moved), cover_role(v, moved))
        for (u, v), moved in zip(pairs, shift.any(axis=1).tolist())
    ]
    roles = tuple(sorted({r for pair in ends for r in pair}, key=lambda r: r.rank))
    cells = 1 if n is None else n**3
    fiber = (1 << s) * cells  # the vertices over one role
    block = {r: k * fiber for k, r in enumerate(roles)}
    start_u = np.array([block[a] for a, _ in ends], dtype=np.int64)
    start_v = np.array([block[b] for _, b in ends], dtype=np.int64)
    level = np.arange(1 << s, dtype=np.int64)
    if n is None:
        xyz = np.zeros((1, 3), dtype=np.int64)
        cell_u = cell_v = np.zeros((len(pairs), 1), dtype=np.int64)
    else:
        xyz = np.stack(np.unravel_index(np.arange(cells), (n, n, n)), axis=1)
        cell_u = np.broadcast_to(np.arange(cells), (len(pairs), cells))
        moved = (xyz[None, :, :] + shift[:, None, :]) % n
        cell_v = (moved[:, :, 0] * n + moved[:, :, 1]) * n + moved[:, :, 2]
    # (base edge, level, cell) -> the cover edge's two ends
    end_u = (start_u[:, None] + level * cells)[:, :, None] + cell_u[:, None, :]
    end_v = (start_v[:, None] + (level ^ mask[:, None]) * cells)[:, :, None] + cell_v[:, None, :]
    count = len(roles) * fiber
    keys = np.sort((np.minimum(end_u, end_v) * count + np.maximum(end_u, end_v)).ravel())
    return LabeledGraph._of_arrays(
        count,
        np.stack(np.divmod(keys, count), axis=1),
        base.d,
        roles,
        np.repeat(np.arange(len(roles)), fiber),
        np.tile(np.repeat(level, cells), len(roles)),
        s,
        np.tile(xyz, ((1 << s) * len(roles), 1)),
    )


def fundamental_cycle_voltages(
    base: BaseGraph, volt: VoltageAssignment
) -> list[tuple[Vec3, int]]:
    """Net (displacement, bits) voltages of the fundamental cycles of a BFS
    spanning tree rooted at vertex 0."""
    g = base.graph
    adjacency = g.adjacency
    parent = [-1] * g.vertex_count
    tree_volt: list[tuple[Vec3, int]] = [(ZERO3, 0)] * g.vertex_count
    seen = [False] * g.vertex_count
    seen[0] = True
    order = [0]
    head = 0
    tree_edges = set()
    while head < len(order):
        v = order[head]
        head += 1
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                tree_volt[w] = (
                    vadd(tree_volt[v][0], volt.disp(v, w)),
                    tree_volt[v][1] ^ volt.bits(v, w),
                )
                tree_edges.add((min(v, w), max(v, w)))
                order.append(w)
    if not all(seen):
        raise MalformedGraph("base graph is disconnected")
    out = []
    for u, v in g.edges:
        if (u, v) in tree_edges:
            continue
        disp = vadd(vadd(tree_volt[u][0], volt.disp(u, v)), vneg(tree_volt[v][0]))
        bits = tree_volt[u][1] ^ volt.bits(u, v) ^ tree_volt[v][1]
        out.append((disp, bits))
    return out


def max_connected_stages(d: int) -> int:
    """Largest s for which the derived lattice can possibly be connected.

    Bit masks reachable while returning to the same cell are indexed by
    zero-displacement cycle classes modulo the central cycle space (central
    edges always carry zero bits), a space of dimension
    (d-1)^2 - 3 - (d-1) = (d-1)(d-2) - 3.  Beyond that many stages the level
    group can never be generated.
    """
    return (d - 1) * (d - 2) - 3


def voltage_group_generated(base: BaseGraph, volt: VoltageAssignment) -> bool:
    """True iff the fundamental-cycle voltages generate Z^3 x GF(2)^s,
    i.e. the derived infinite graph is connected.

    Split check: the displacement rows must span Z^3 as an integer lattice,
    and the bit masks reachable by integer kernel combinations of the
    displacement rows must span GF(2)^s.  A zero-displacement cycle is a
    kernel vector by itself, so its bits are a mask as they stand; only the
    cycles that move (3(d - 1) of the (d - 1)^2 for the canonical
    displacements) go through the integer kernel.
    """
    cyc = fundamental_cycle_voltages(base, volt)
    moving = [(t, bits) for t, bits in cyc if t != ZERO3]
    disp_rows = [list(t) for t, _ in moving]
    if not linalg.spans_full_lattice(disp_rows, 3):
        return False
    if volt.s == 0:
        return True
    masks = [bits for t, bits in cyc if t == ZERO3]
    for combo in linalg.kernel_basis(disp_rows):
        m = 0
        for coeff, (_, bits) in zip(combo, moving):
            if coeff & 1:
                m ^= bits
        masks.append(m)
    return linalg.gf2_rank(masks) == volt.s


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class CertificateFlags:
    no_zero_voltage_hexes: bool
    no_zero_voltage_stray4s: bool
    voltage_group_generated: bool

    @property
    def all_true(self) -> bool:
        return (
            self.no_zero_voltage_hexes
            and self.no_zero_voltage_stray4s
            and self.voltage_group_generated
        )

    def to_dict(self) -> dict:
        return {
            "no_zero_voltage_hexes": self.no_zero_voltage_hexes,
            "no_zero_voltage_stray4s": self.no_zero_voltage_stray4s,
            "voltage_group_generated": self.voltage_group_generated,
        }


_CERTIFICATE_KEYS = ("d", "s", "level_bits", "edge_order", "flags", "constraint_count", "seed")
_FLAG_NAMES = tuple(f.name for f in fields(CertificateFlags))


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise MalformedGraph(f"certificate {problem}")


@dataclass(frozen=True)
class LiftCertificate:
    """Replayable record of one certified lift sequence.

    stage_bits[i] is the stage-i signing as a bitstring over the canonical
    base edge order ('1' = crossed); central edges are always '0'.
    """

    d: int
    s: int
    stage_bits: tuple[str, ...]
    edge_order: tuple[tuple[str, str], ...]
    flags: CertificateFlags
    constraint_count: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "s": self.s,
            "level_bits": list(self.stage_bits),
            "edge_order": [list(pair) for pair in self.edge_order],
            "flags": self.flags.to_dict(),
            "constraint_count": self.constraint_count,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "LiftCertificate":
        """Parse a certificate's JSON object.  Raises MalformedGraph for a
        missing key, a value of the wrong type, d below 5, an edge_order
        other than the d^2 edges of the base graph K_{d,d}, a stage count
        other than s, more stages than max_connected_stages(d), or a stage
        that is not a 0/1 string as wide as edge_order.  The size checks come
        before any construction, so a huge d fails at once."""
        _require(isinstance(data, dict), "must be a JSON object")
        missing = [key for key in _CERTIFICATE_KEYS if key not in data]
        _require(not missing, f"is missing {', '.join(missing)}")
        for key in ("d", "s", "constraint_count", "seed"):
            _require(type(data[key]) is int, f"{key} must be an integer, got {data[key]!r}")
        d, s, flags, order, stages = (data[k] for k in ("d", "s", "flags", "edge_order", "level_bits"))
        _require(d >= 5, f"has d={d}, but the construction requires d >= 5")
        _require(
            isinstance(flags, dict)
            and sorted(flags) == sorted(_FLAG_NAMES)
            and all(type(value) is bool for value in flags.values()),
            f"flags must be the booleans {', '.join(_FLAG_NAMES)}",
        )
        _require(
            isinstance(order, list)
            and all(isinstance(p, list) and len(p) == 2 and all(isinstance(r, str) for r in p) for p in order),
            "edge_order must be a list of role pairs",
        )
        _require(
            len(order) == d * d,
            f"edge_order has {len(order)} entries, but the d={d} base graph K_{{d,d}} has {d * d} edges",
        )
        _require(
            isinstance(stages, list) and all(isinstance(stage, str) for stage in stages),
            "level_bits must be a list of strings",
        )
        _require(len(stages) == s, f"has s={s} but {len(stages)} stages in level_bits")
        _require(
            s <= max_connected_stages(d),
            f"has s={s} stages, more than the {max_connected_stages(d)} under which "
            f"a d={d} lattice can be connected",
        )
        for i, stage in enumerate(stages):
            _require(len(stage) == len(order), f"stage {i} has {len(stage)} bits for {len(order)} edges")
            _require(not stage.strip("01"), f"stage {i} holds a character other than 0 and 1")
        return cls(
            d=d,
            s=s,
            stage_bits=tuple(stages),
            edge_order=tuple(tuple(pair) for pair in order),
            flags=CertificateFlags(**flags),
            constraint_count=data["constraint_count"],
            seed=data["seed"],
        )

    @classmethod
    def from_json(cls, text: str) -> "LiftCertificate":
        return cls.from_json_dict(json.loads(text))

    def to_voltage(self, base: BaseGraph) -> VoltageAssignment:
        """Rebuild the voltage assignment (displacements + per-edge masks)."""
        if len(self.edge_order) != len(base.graph.edge_array):
            raise MalformedGraph("certificate edge order does not match base graph")
        ids = {str(base.role_of(v)): v for v in range(base.graph.vertex_count)}
        # column j of the stages, stage i as bit i
        masks = [int("".join(column)[::-1], 2) for column in zip(*self.stage_bits)]
        bits: dict[Edge, int] = {}
        seen: set[Edge] = set()
        for j, (ru, rv) in enumerate(self.edge_order):
            if ru not in ids or rv not in ids:
                raise MalformedGraph(
                    f"certificate edge_order entry {j} ({ru}, {rv}) names a role "
                    f"the d={base.d} base graph does not have"
                )
            u, v = ids[ru], ids[rv]
            e = (u, v) if u < v else (v, u)
            if e not in base.edge_index or e in seen:
                raise MalformedGraph(
                    f"certificate edge_order entry {j} ({ru}, {rv}) is not a distinct base edge"
                )
            seen.add(e)
            if self.s and masks[j]:
                bits[e] = masks[j]
        return VoltageAssignment(self.s, base.displacement, make_bits(base, self.s, bits))


def canonical_edge_order(base: BaseGraph) -> tuple[tuple[str, str], ...]:
    return tuple((str(base.role_of(u)), str(base.role_of(v))) for u, v in base.graph.edges)


def stage_bitstrings(base: BaseGraph, volt: VoltageAssignment) -> tuple[str, ...]:
    """Per-stage signing bitstrings over the canonical base edge order."""
    masks = [volt.level_bits.get(e, 0) for e in base.graph.edges]
    return tuple("".join("1" if m >> i & 1 else "0" for m in masks) for i in range(volt.s))
