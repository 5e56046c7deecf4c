"""The quotient base graph with its displacements and level-bit voltages,
its explicit derived covers (finite tori and the full unit graph), and lift
certificates.

The base graph merges lx with rx (into vx), ly with ry, lz with rz, giving
K_{d,d}: black c is joined to white d + j for every c, j < d.  Its edges
carry displacements in Z^3 and level bits in GF(2)**s, each an array
indexed [c, j] and oriented black -> white.  The displacements are fixed by
the gluing of the cube, so they belong to the base graph (BaseGraph.shifts):
nonzero only on vx->c1 = +e_x, vy->c1 = +e_y and vz->c1 = +e_z.  Only the
bits are chosen, so a voltage is an orientation-free level-bit mask per edge
(zero on the central hub edges).  The infinite lattice is the derived cover
over Z^3 x GF(2)**s; derived_cover builds its finite quotients, the n-torus
and the full unit graph of one cube.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import linalg
from .errors import DegreeTooSmall, MalformedGraph, TooLarge, TorusTooSmall
from .graphs import Edge, LabeledGraph, Role, _frozen, _json_list

Vec3 = tuple[int, int, int]

UNIT: dict[str, Vec3] = {"vx": (1, 0, 0), "vy": (0, 1, 0), "vz": (0, 0, 1)}

# derived_cover refuses covers above this many vertices: about 250 bytes each
# at its peak while it builds, 110 held by the graph it returns (measured on
# the 94,208-vertex d = 10, s = 12 full unit graph)
COVER_LIMIT = 1 << 20


def _mask_dtype(s: int):
    """Level masks are int64 up to 63 bits, Python ints above."""
    return np.int64 if s <= 63 else object


@dataclass(frozen=True)
class BaseGraph:
    """The degree-d quotient graph K_{d,d}, fixed by d alone.

    Vertex ids follow the canonical role order: the spokes c_1..c_d are the
    blacks 0..d-1, and t, b, f_1..f_{d-5}, vx, vy, vz are the whites
    d..2d-1, so the hubs sit at white positions 0 and 1 and the connectors
    at the last three.  Every black is joined to every white.
    DegreeTooSmall below d = 5.
    """

    d: int

    def __post_init__(self):
        if self.d < 5:
            raise DegreeTooSmall(f"construction requires d >= 5, got {self.d}")

    @cached_property
    def graph(self) -> LabeledGraph:
        """The base graph as a labeled graph: vertex v has role v of the
        role table, level "" and cell 0."""
        d, n = self.d, 2 * self.d
        roles = (
            *(Role("c", i) for i in range(1, d + 1)),
            Role("t"),
            Role("b"),
            *(Role("f", j) for j in range(1, d - 4)),
            *(Role(tag) for tag in UNIT),
        )
        edges = np.stack([np.repeat(np.arange(d), d), np.tile(np.arange(d, n), d)], axis=1)
        return LabeledGraph(
            n, edges, d, roles, np.arange(n), np.zeros(n, dtype=np.int64), 0, np.zeros((n, 3), dtype=np.int64)
        )

    @cached_property
    def shifts(self) -> np.ndarray:
        """Read-only (d, d, 3) int64: the displacement of c -> d + j at
        [c, j].  c1 -> v* (the last three whites) is -UNIT[v*], every other
        edge zero."""
        shifts = np.zeros((self.d, self.d, 3), dtype=np.int64)
        shifts[0, self.d - len(UNIT) :] = -np.array(list(UNIT.values()))
        return _frozen(shifts)

    @cached_property
    def role_names(self) -> np.ndarray:
        """Read-only object array: the role name (str(role)) of every vertex."""
        return _frozen(np.array([str(r) for r in self.graph.roles], dtype=object))


@dataclass(frozen=True, eq=False)
class VoltageAssignment:
    """The level-bit voltage of every base edge (c, d + j): masks (d, d)
    holds its s-bit mask at [c, j], and reshape(d * d) gives base edge
    order.  The displacements are the base graph's (BaseGraph.shifts)."""

    s: int
    masks: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoltageAssignment):
            return NotImplemented
        return self.s == other.s and np.array_equal(self.masks, other.masks)

    @cached_property
    def level_bits(self) -> Mapping[Edge, int]:
        """Read-only view: base edge (c, d + j) -> its mask, nonzero ones only."""
        d, at = len(self.masks), np.argwhere(self.masks).tolist()
        return MappingProxyType({(c, d + j): int(self.masks[c, j]) for c, j in at})

    def with_bits(self, s: int, level_bits: Mapping[Edge, int]) -> "VoltageAssignment":
        return VoltageAssignment(s, make_bits(len(self.masks), s, level_bits))

    def truncate(self, k: int) -> "VoltageAssignment":
        """The voltage restricted to its first k lift stages; itself when
        k >= s."""
        if k < 0:
            raise ValueError(f"cannot keep a negative number of lift stages ({k})")
        if k >= self.s:
            return self
        return VoltageAssignment(k, (self.masks & (1 << k) - 1).astype(_mask_dtype(k)))


def build_base_graph(d: int) -> tuple[BaseGraph, VoltageAssignment]:
    """The base graph BaseGraph(d) plus the voltage of s = 0.  Crossing
    vx->c1 gains +e_x (base.shifts): the merged connector vertex belongs to
    the cube where it plays the rx role.  DegreeTooSmall below d = 5."""
    return BaseGraph(d), VoltageAssignment(0, np.zeros((d, d), dtype=np.int64))


def make_bits(d: int, s: int, level_bits: Mapping[Edge, int]) -> np.ndarray:
    """The (d, d) mask array of a map from base edges (c, d + j) to s-bit
    masks.  ValueError for a key that is not a base edge in that
    orientation, a mask wider than s bits, or bits on a central edge."""
    masks = np.zeros((d, d), dtype=_mask_dtype(s))
    for e, mask in level_bits.items():
        if not (isinstance(e, tuple) and len(e) == 2 and 0 <= e[0] < d <= e[1] < 2 * d):
            raise ValueError(f"unknown edge {e}")
        if mask >> s:
            raise ValueError(f"mask {mask:#x} wider than s={s}")
        masks[e[0], e[1] - d] = mask
    _refuse_central_bits(masks)
    return masks


def _refuse_central_bits(masks: np.ndarray) -> None:
    """ValueError when an edge (c, d + j) at a hub, j < 2, carries bits."""
    central = np.argwhere(masks[:, :2] != 0)
    if len(central):
        c, j = central[0].tolist()
        raise ValueError(f"central edge {(c, len(masks) + j)} must carry zero bits")


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

    An edge (u,v) with displacement t (base.shifts) and bit mask m joins
    (u, z, l) to (v, z + t, l xor m).  With n, cells are (Z_n)^3 and the
    result is the n-torus: d-regular, bipartite and simple with
    n^3 * 2^s * 2d vertices and n^3 * 2^s * d^2 edges.  With n=None there is
    one cell and t is dropped, which gives the full unit graph of a cube:
    each merged connector v* splits back into l* on its displaced edge and
    r* on the others.  At s = 0 that is the root unit graph, and in general
    it equals iterating signed 2-lifts on the root unit graph with the
    per-stage signings.  TooLarge, before anything is built, when the cover
    could have more than COVER_LIMIT vertices (check_cover_size).

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
    pairs = base.graph.edge_array
    shift, mask = base.shifts.reshape(-1, 3), volt.masks.reshape(-1)

    def cover_role(v: int, moved: bool) -> Role:
        """The role over base vertex v at an edge that moves (displacement
        nonzero) or not, which picks l* or r* for a connector."""
        r = base.graph.roles[v]
        if n is None and r.tag in UNIT:
            return Role(("l" if moved else "r") + r.tag[1])
        return r

    ends = [
        (cover_role(u, moved), cover_role(v, moved))
        for (u, v), moved in zip(pairs.tolist(), shift.any(axis=1).tolist())
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
    return LabeledGraph(
        count,
        np.stack(np.divmod(keys, count), axis=1),
        base.d,
        roles,
        np.repeat(np.arange(len(roles)), fiber),
        np.tile(np.repeat(level, cells), len(roles)),
        s,
        np.tile(xyz, ((1 << s) * len(roles), 1)),
    )


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

    The spanning tree that joins c1 to every white and the hub t to every
    other black closes one fundamental cycle c1 -> t -> c -> d + j -> c1 for
    each c, j >= 1, with bits M[c, j] ^ M[0, j] (M = volt.masks; the hub
    edges carry none).  Under the cube's displacements (base.shifts) it
    stands still for j < k = d - 3 and moves by the unit vector of connector
    j for j >= k.  The moving cycles give every unit vector, so they span
    Z^3, and their zero-displacement integer combinations are spanned by
    the differences of two cycles at one connector.  Mod 2 those differences
    are spanned by the ones against row 1, of bits M[c, j] ^ M[1, j].  So the
    voltage generates exactly when the GF(2) rank of the standing cycles'
    bits and of those differences reaches s; the rank stops there.
    """
    M, k = volt.masks, base.d - len(UNIT)
    standing = (M[1:, 1:k] ^ M[0, 1:k]).ravel().tolist()
    connector = (M[2:, k:] ^ M[1, k:]).ravel().tolist()
    return linalg.gf2_rank(itertools.chain(standing, connector), volt.s) == volt.s


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


# one edge_order pair of LiftCertificate.to_json, led by its line break;
# role names are letters and digits, which JSON writes unescaped
_PAIR_JSON = '\n    [\n      "%s",\n      "%s"\n    ]'
_CERTIFICATE_KEYS = ("d", "s", "level_bits", "edge_order", "flags", "constraint_count", "seed")
_FLAG_NAMES = tuple(f.name for f in fields(CertificateFlags))


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise MalformedGraph(f"certificate {problem}")


@dataclass(frozen=True)
class LiftCertificate:
    """Replayable record of one certified lift sequence: the voltage, its
    verification flags, the constraint count and the seed.

    In JSON, level_bits[i] is the stage-i signing as a bitstring over the
    canonical base edge order ('1' = crossed), which edge_order spells out
    (canonical_edge_order); central edges are always '0'.
    """

    volt: VoltageAssignment
    flags: CertificateFlags
    constraint_count: int
    seed: int

    @property
    def d(self) -> int:
        return len(self.volt.masks)

    @property
    def s(self) -> int:
        return self.volt.s

    def to_json(self) -> str:
        """The certificate as JSON: the bytes of json.dumps(record, indent=2,
        sort_keys=True) + newline, for the record of d, s, level_bits (the
        stage strings of the masks), edge_order (the canonical pairs as
        lists), flags, constraint_count and seed, written with one format
        string per list."""
        d, s, masks = self.d, self.s, self.volt.masks
        names = itertools.chain.from_iterable(canonical_edge_order(BaseGraph(d)))
        pairs = ",".join([_PAIR_JSON] * (d * d)) % tuple(names)
        at = np.arange(s).astype(masks.dtype)[:, None]
        chars = ((masks.reshape(-1) >> at) & 1).astype(np.uint8) + ord("0")
        stages = ",".join(f'\n    "{row.tobytes().decode()}"' for row in chars)
        flags = ",".join(
            f'\n    "{key}": {json.dumps(value)}' for key, value in sorted(self.flags.to_dict().items())
        )
        return (
            f'{{\n  "constraint_count": {self.constraint_count},\n  "d": {d},\n'
            f'  "edge_order": {_json_list(pairs, d * d)},\n  "flags": {{{flags}\n  }},\n'
            f'  "level_bits": {_json_list(stages, s)},\n  "s": {s},\n'
            f'  "seed": {self.seed}\n}}\n'
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "LiftCertificate":
        """Parse a certificate's JSON object.  Raises MalformedGraph for a
        missing key, a value of the wrong type, d below 5, an edge_order
        that is not d^2 role pairs, a stage count other than s, more stages
        than max_connected_stages(d), a stage that is not a 0/1 string as
        wide as edge_order, or an edge_order other than the canonical one,
        naming its first wrong entry; ValueError for bits on a central
        edge.  The size checks come before any construction, so a huge d
        fails at once."""
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
            and set(map(type, order)) <= {list}
            and set(map(len, order)) <= {2}
            and set(map(type, itertools.chain.from_iterable(order))) <= {str},
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
            # UTF-8 writes every other character, surrogates too, without the
            # bytes of 0 and 1, so deleting those leaves nothing only for a 0/1
            # string; bytes.translate is a table lookup, str.strip a search
            _require(
                not stage.encode("utf-8", "surrogatepass").translate(None, b"01"),
                f"stage {i} holds a character other than 0 and 1",
            )
        canonical = canonical_edge_order(BaseGraph(d))
        if tuple(map(tuple, order)) != canonical:
            k = next(k for k, pair in enumerate(order) if tuple(pair) != canonical[k])
            raise MalformedGraph(
                f"certificate edge_order entry {k} is ({', '.join(order[k])}), "
                f"not the canonical ({', '.join(canonical[k])})"
            )
        # column k of the stages is the mask of base edge k, stage i as bit i
        dtype = _mask_dtype(s)
        rows = np.frombuffer("".join(stages).encode(), dtype=np.uint8).reshape(s, d * d) - ord("0")
        masks = (rows.astype(dtype) << np.arange(s).astype(dtype)[:, None]).sum(axis=0).reshape(d, d)
        _refuse_central_bits(masks)
        volt = VoltageAssignment(s, masks)
        return cls(volt, CertificateFlags(**flags), data["constraint_count"], data["seed"])

    @classmethod
    def from_json(cls, text: str) -> "LiftCertificate":
        return cls.from_json_dict(json.loads(text))

    def to_voltage(self, base: BaseGraph) -> VoltageAssignment:
        """The certificate's voltage, self.volt; base is not read.  Kept for
        the benchmark's set-up, which calls it."""
        return self.volt


def canonical_edge_order(base: BaseGraph) -> tuple[tuple[str, str], ...]:
    """The role-name pair of every base edge, in base edge order: the
    edge_order of every certificate."""
    u, v = base.role_names[base.graph.edge_array.T]
    return tuple(zip(u.tolist(), v.tolist()))
