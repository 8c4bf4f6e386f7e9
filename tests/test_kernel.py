"""Property tests of the sparse rank kernel and the oracles built on it."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import morsepow.resolution as resolution
from morsepow import (
    Monomial,
    PowerBasis,
    VerificationFailed,
    betti,
    build_resolution,
    taylor_betti,
    verify_strand_acyclicity,
)
from morsepow.resolution import _gf2_rank, _rank, _taylor_boundary
from conftest import squarefree_ideals, tree_ideals


def dense_rank(rows, char: int) -> int:
    """Reference: Gauss-Jordan on a dense integer matrix over Q (char 0,
    with Fraction entries) or GF(char)."""
    if not rows or not rows[0]:
        return 0
    if char == 0:
        mat = [[Fraction(x) for x in row] for row in rows]
    else:
        mat = [[x % char for x in row] for row in rows]
    m, n = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, m) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = (
            1 / mat[row][col]
            if char == 0
            else pow(int(mat[row][col]), -1, char)
        )
        if char == 0:
            mat[row] = [x * inv for x in mat[row]]
        else:
            mat[row] = [(x * inv) % char for x in mat[row]]
        for i in range(m):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                if char == 0:
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[row])]
                else:
                    mat[i] = [(x - f * y) % char for x, y in zip(mat[i], mat[row])]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


matrices = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=7
    )
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(matrices)
def test_sparse_rank_matches_dense_reference(rows):
    vectors = [[(k, x) for k, x in enumerate(row) if x] for row in rows]
    columns = [[(k, row[j]) for k, row in enumerate(rows)] for j in range(len(rows[0]))]
    for char in (0, 3):
        expected = dense_rank(rows, char)
        assert _rank(vectors, char) == expected
        assert _rank(columns, char) == expected  # zeros given explicitly
    # over GF(2) the oracles take the odd entries as int bitsets
    expected = dense_rank(rows, 2)
    assert _gf2_rank(sum(1 << k for k, x in vec if x & 1) for vec in vectors) == expected
    assert _gf2_rank(sum(1 << k for k, x in col if x & 1) for col in columns) == expected


def test_taylor_boundary_reports_missing_facet():
    with pytest.raises(VerificationFailed):
        _taylor_boundary((0, 1), {(0,): 0})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tree_ideals())
def test_taylor_oracle_and_strands_agree_with_morse_on_trees(case):
    og, r = case
    complex = build_resolution(None, r, og=og)
    expected = betti(complex).multigraded
    monomials = PowerBasis(og, r).monomials
    assert taylor_betti(monomials, 0) == expected
    assert taylor_betti(monomials, 2) == expected
    assert verify_strand_acyclicity(complex, 0)
    assert verify_strand_acyclicity(complex, 2)


def squarefree(*supports) -> list[Monomial]:
    return [Monomial.from_dict(dict.fromkeys(s, 1)) for s in supports]


# the Stanley-Reisner ideal of the 6-vertex RP^2: its ten cubic generators
# are the triples that are not facets (every pair is an edge)
RP2_FACETS = {
    frozenset(f)
    for f in ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5))
}
RP2 = squarefree(*(t for t in combinations(range(6), 3) if frozenset(t) not in RP2_FACETS))


def totals(tb) -> list[int]:
    out = [0] * (max(i for i, _ in tb) + 1)
    for (i, _), c in tb.items():
        out[i] += c
    return out


def test_rp2_taylor_betti_depends_on_the_field(running, monkeypatch):
    # by Hochster's formula beta_i at x0...x5 is dim H~_{3-i}(RP^2): 1 for
    # i = 2, 3 over GF(2) and 0 over Q, so the GF(2) pass, nonzero in two
    # degrees there, must not stand in for Q
    top = Monomial.from_dict(dict.fromkeys(range(6), 1))
    rational = []
    rank = resolution._rank

    def counted(vectors, char):
        vectors = list(vectors)
        if char == 0:
            rational.append(len(vectors))
        return rank(vectors, char)

    monkeypatch.setattr(resolution, "_rank", counted)
    by_field = {c: taylor_betti(RP2, c) for c in (0, 2, 3)}
    assert totals(by_field[0]) == totals(by_field[3]) == [10, 15, 6]
    assert totals(by_field[2]) == [10, 15, 7, 1]
    assert {i: c for (i, m), c in by_field[2].items() if m == top} == {2: 1, 3: 1}
    assert top not in {m for _, m in by_field[0]}
    # exact rational elimination ran, starting at x0...x5, the one label
    # with all ten generators strictly below it
    assert rational and rational[0] == 10
    rational.clear()
    taylor_betti(running.generators, 0)
    assert rational == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(squarefree_ideals(max_gens=7).map(lambda case: case[0]))
# a hollow triangle and a point: at x0*x1*x2*x3, GF(2) homology in two
# degrees, so exact rational elimination runs there either way
@example(squarefree((0, 1, 2), (0, 3), (1, 3), (2, 3)))
# the 6-cycle and a triangle across it: seven generators, 127 faces
@example(squarefree((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2, 4)))
def test_rational_taylor_betti_read_off_gf2_is_exact(gens):
    shortcut = taylor_betti(gens, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_gf2_decides_q", lambda homology: False)
        assert taylor_betti(gens, 0) == shortcut
