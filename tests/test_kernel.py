"""Property tests of the sparse rank kernel and the oracles built on it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsepow import (
    PowerBasis,
    VerificationFailed,
    betti,
    build_resolution,
    taylor_betti,
    verify_strand_acyclicity,
)
from morsepow.resolution import _rank, _taylor_boundary
from conftest import tree_ideals


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
    for char in (0, 2, 3):
        expected = dense_rank(rows, char)
        assert _rank(vectors, char) == expected
        assert _rank(columns, char) == expected  # zeros given explicitly


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
