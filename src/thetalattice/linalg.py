"""Small exact linear algebra helpers: GF(2) bitset ranks and integer row lattices.

GF(2) vectors are python ints used as bitsets.  Integer matrices are lists of
lists of python ints, so everything stays exact regardless of magnitude.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def gf2_rank(rows: Iterable[int], width: int | None = None) -> int:
    """Rank over GF(2) of bitset rows, by elimination on leading bits.

    Rows of at most width bits have rank at most width, so with a width the
    elimination stops, and reads no further rows, once the rank reaches it.
    """
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            p = v.bit_length() - 1
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                break
        if len(pivots) == width:
            break
    return len(pivots)


def _echelon(a: List[List[int]], u: List[List[int]] | None) -> int:
    """In-place integer row echelon via gcd elimination; returns the rank.

    Row operations (swap, add integer multiple, negate) are unimodular, so if a
    transform accumulator ``u`` is supplied it stays unimodular and satisfies
    u @ original == a throughout.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        if r >= m:
            break
        while True:
            piv = None
            for i in range(r, m):
                if a[i][c] != 0 and (piv is None or abs(a[i][c]) < abs(a[piv][c])):
                    piv = i
            if piv is None:
                break
            others = False
            for i in range(r, m):
                if i != piv and a[i][c] != 0:
                    q = a[i][c] // a[piv][c]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[piv])]
                        if u is not None:
                            u[i] = [x - q * y for x, y in zip(u[i], u[piv])]
                    if a[i][c] != 0:
                        others = True
            if not others:
                a[r], a[piv] = a[piv], a[r]
                if u is not None:
                    u[r], u[piv] = u[piv], u[r]
                r += 1
                break
    return r


def spans_full_lattice(rows: Sequence[Sequence[int]], ncols: int) -> bool:
    """True iff the integer row span of rows is all of Z^ncols.

    The rows generate Z^ncols exactly when the echelon form has full rank and
    every pivot is a unit (the product of pivot magnitudes is the index of the
    generated sublattice).
    """
    a = [list(map(int, row)) for row in rows]
    if not a:
        return ncols == 0
    rank = _echelon(a, None)
    if rank < ncols:
        return False
    index = 1
    for i in range(rank):
        piv = next((x for x in a[i] if x != 0), 0)
        index *= abs(piv)
    return index == 1


def kernel_basis(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis of the integer kernel lattice {a in Z^m : a @ rows == 0}.

    Tracks a unimodular transform U with U @ rows in echelon form; the rows of
    U whose image is zero form a basis of the (saturated) kernel lattice.
    Public because voltage_group_generated folds level bits over this basis
    (of the fundamental cycles that move), and the tests check it directly.
    """
    m = len(rows)
    if m == 0:
        return []
    a = [list(map(int, row)) for row in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    rank = _echelon(a, u)
    return [u[i] for i in range(rank, m)]
