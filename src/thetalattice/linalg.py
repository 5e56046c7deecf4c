"""GF(2) rank of bitset rows, the algebra of voltage_group_generated.

GF(2) vectors are python ints used as bitsets, so every width is exact.
"""

from __future__ import annotations

from typing import Iterable


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
