import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from thetalattice.graphs import LabeledGraph, Role, VertexLabel, from_labeled_vertices
from thetalattice.census import CensusReport
from thetalattice.voltage import make_bits


def plain_graph(n, edges):
    """Unlabeled simple graph for counting tests."""
    return LabeledGraph(n, tuple(edges))


def cycle_graph(k):
    return plain_graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_bipartite(m, n):
    return plain_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def labeled_k2d(d):
    """K_{2,d} with hub/spoke roles (a standalone central copy)."""
    t, b = VertexLabel(Role("t")), VertexLabel(Role("b"))
    c = [VertexLabel(Role("c", i)) for i in range(1, d + 1)]
    edges = [(t, ci) for ci in c] + [(b, ci) for ci in c]
    return from_labeled_vertices([t, b, *c], edges, d)


def labeled_cycle4():
    """A lone labeled 4-cycle with no central edges (c-f alternation)."""
    c1, c2 = VertexLabel(Role("c", 1)), VertexLabel(Role("c", 2))
    f1, f2 = VertexLabel(Role("f", 1)), VertexLabel(Role("f", 2))
    return from_labeled_vertices([c1, f1, c2, f2], [(c1, f1), (f1, c2), (c2, f2), (f2, c1)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return plain_graph(n, edges)


def random_bits_voltage(base, volt0, s, seed):
    rng = random.Random(seed)
    bits = {e: rng.getrandbits(s) for e in base.noncentral_edges}
    return volt0.with_bits(s, make_bits(base, s, bits))


@pytest.fixture(scope="session")
def certified():
    """Lazily certified lattices shared across tests, with elapsed times."""
    import time

    from thetalattice.certify import certify

    cache = {}

    def get(d, seed=1):
        if d not in cache:
            t0 = time.perf_counter()
            cert, base, volt = certify(d, seed=seed)
            cache[d] = (cert, base, volt, time.perf_counter() - t0)
        return cache[d]

    return get


def _voltage_census_reference(base, volt):
    """The per-cube census by direct loops over white pairs and triples and
    black pairs, with voltages as (dx, dy, dz, bits) tuples: the reference
    oracle for `voltage_census`."""

    def path(w1, c, w2):
        d1, d2 = volt.disp(w1, c), volt.disp(c, w2)
        return (d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2], volt.bits(w1, c) ^ volt.bits(c, w2))

    def add(a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] ^ b[3])

    def neg(a):
        return (-a[0], -a[1], -a[2], a[3])

    d, s = base.d, volt.s
    whites, blacks = base.whites, base.blacks
    t_id = next(v for v in whites if base.role_of(v).tag == "t")
    b_id = next(v for v in whites if base.role_of(v).tag == "b")

    paths = {}
    for w1, w2 in itertools.combinations(whites, 2):
        paths[(w1, w2)] = [(c, path(w1, c, w2)) for c in blacks]

    zero4 = central4 = theta = 0
    for pair, plist in paths.items():
        counts = Counter(v for _, v in plist)
        pair_c4 = sum(comb(m, 2) for m in counts.values())
        zero4 += pair_c4
        theta += sum(comb(m, 3) for m in counts.values())
        if pair in ((t_id, b_id), (b_id, t_id)):
            central4 += pair_c4
            assert counts[(0, 0, 0, 0)] == d

    for c1, c2 in itertools.combinations(blacks, 2):
        counts = Counter(path(c1, w, c2) for w in whites)
        theta += sum(comb(m, 3) for m in counts.values())

    zero6 = 0
    for w1, w2, w3 in itertools.combinations(whites, 3):
        pa = paths[(w1, w2)]
        pb = paths[(w2, w3)]
        pc = [(c, neg(v)) for c, v in paths[(w1, w3)]]  # oriented w3 -> w1
        cnt_c = Counter(v for _, v in pc)
        val_c = dict(pc)
        for ca, ga in pa:
            for cb, gb in pb:
                if ca == cb:
                    continue
                need = neg(add(ga, gb))
                hits = cnt_c.get(need, 0)
                if hits:
                    if val_c[ca] == need:
                        hits -= 1
                    if val_c[cb] == need:
                        hits -= 1
                    zero6 += hits

    scale = 1 << s
    owned = scale * 2 * d
    return CensusReport(
        c4_total=scale * zero4,
        c4_central=scale * central4,
        c4_stray=scale * (zero4 - central4),
        c6=scale * zero6,
        theta222=scale * theta,
        c4_bar=Fraction(scale * zero4, owned),
        c6_bar=Fraction(scale * zero6, owned),
        theta_bar=Fraction(scale * theta, owned),
        scope="per-cube",
    )
