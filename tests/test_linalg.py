from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gf2_in_span, kernel_basis, kernel_basis_sparse, spans_full_lattice
from thetalattice import linalg


def test_gf2_rank_basics():
    assert linalg.gf2_rank([]) == 0
    assert linalg.gf2_rank([0b101, 0b011, 0b110]) == 2  # third = xor of first two
    assert linalg.gf2_rank([1, 2, 4]) == 3
    assert linalg.gf2_rank([0, 0]) == 0


def test_gf2_in_span():
    rows = [0b101, 0b011]
    assert gf2_in_span(0b110, rows)
    assert not gf2_in_span(0b100, rows)


@given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=8))
def test_gf2_rank_bounds(rows):
    r = linalg.gf2_rank(rows)
    assert 0 <= r <= len([v for v in rows if v])
    assert linalg.gf2_rank(rows + rows) == r



@settings(max_examples=200)
@given(st.integers(1, 12).flatmap(lambda w: st.tuples(st.just(w), st.lists(st.integers(0, 2**w - 1), max_size=40))))
def test_gf2_rank_stops_at_width(case):
    """Given the row width, the rank is the rank of all the rows, and it
    reads no row after the shortest prefix whose rank is the width."""
    width, rows = case
    seen = []

    def read():
        for v in rows:
            seen.append(v)
            yield v

    r = linalg.gf2_rank(read(), width)
    assert r == linalg.gf2_rank(rows)
    if r < width:
        assert seen == rows
    else:
        assert linalg.gf2_rank(seen) == width > linalg.gf2_rank(seen[:-1])


def test_spans_full_lattice():
    assert spans_full_lattice([[1, 0], [0, 1]], 2)
    assert spans_full_lattice([[2, 1], [1, 1]], 2)  # det 1
    assert not spans_full_lattice([[2, 0], [0, 1]], 2)  # index 2
    assert not spans_full_lattice([[1, 0]], 2)  # rank 1
    assert spans_full_lattice([[1, 1], [0, 1], [5, 3]], 2)
    assert spans_full_lattice([], 0)


def _rank_q(rows):
    """Rational-arithmetic row rank, as an independent oracle."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        rank += 1
        r += 1
    return rank


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_kernel_basis_annihilates_and_has_full_rank(rows):
    kernel = kernel_basis(rows)
    for combo in kernel:
        image = [sum(c * row[j] for c, row in zip(combo, rows)) for j in range(3)]
        assert image == [0, 0, 0]
    assert len(kernel) == len(rows) - _rank_q(rows)
    assert _rank_q(kernel) == len(kernel) if kernel else True


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_kernel_basis_saturated_mod2(rows):
    """The mod-2 image of the kernel basis spans every small integer kernel
    vector's residue (saturation check against brute enumeration)."""
    kernel = kernel_basis(rows)
    basis_masks = []
    for combo in kernel:
        basis_masks.append(sum((c & 1) << i for i, c in enumerate(combo)))
    import itertools

    m = len(rows)
    for a in itertools.product(range(-2, 3), repeat=m):
        if all(sum(a[i] * rows[i][j] for i in range(m)) == 0 for j in range(3)):
            mask = sum((c & 1) << i for i, c in enumerate(a))
            assert gf2_in_span(mask, basis_masks)


def test_kernel_basis_sparse_matches_dense():
    rows = [[0, 0, 0], [1, 0, 0], [0, 0, 0], [2, 0, 0], [0, 0, 0]]
    sparse = kernel_basis_sparse(rows)
    for combo in sparse:
        image = [sum(c * row[j] for c, row in zip(combo, rows)) for j in range(3)]
        assert image == [0, 0, 0]
    assert len(sparse) == len(kernel_basis(rows)) == 4
