from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings

from morsepow import (
    NEG_INF,
    DuplicateGenerator,
    LengthMismatch,
    Monomial,
    NotInSupport,
    PowerBasis,
    Variables,
    colex_key,
    descent_family,
    format_monomial,
    last_disagreement,
    move_many,
    move_to_joint,
    power_vectors,
    support,
    uniqueness_check,
    weak_compositions,
)
from morsepow.ordering import OrderedGenerators
from conftest import FIXED_CASES, LABEL_SHAPES, ideal, ordered, tree_ideals


def test_counts():
    assert len(power_vectors(3, 2)) == 6
    assert power_vectors(1, 5) == [(5,)]
    assert len(power_vectors(4, 3)) == 20
    assert len(power_vectors(4, 3)) == comb(6, 3)
    for q in range(1, 5):
        for r in range(4):
            out = list(weak_compositions(r, q))
            assert out == sorted(set(out))  # distinct, in lexicographic order
            assert len(out) == comb(r + q - 1, r)


def test_long_vectors_do_not_recurse():
    # one recursion level per slot would pass Python's recursion limit;
    # PowerBasis only reads the generators and their complement facets,
    # so single variables stand in for an ideal this wide
    q = 1500
    assert sum(1 for _ in weak_compositions(1, q)) == q
    variables = Variables([f"x_{v}" for v in range(q)])
    gens = [Monomial(((v, 1),)) for v in range(q)]
    facets = [frozenset(range(q)) - {v} for v in range(q)]
    og = OrderedGenerators(variables, gens, facets, [0] * q, [frozenset()] * q, range(q))
    basis = PowerBasis(og, 1)
    assert basis.size == q
    assert basis.monomials[0] == gens[-1]  # colex-largest vector first


def test_descending_colex_order():
    assert power_vectors(3, 2) == [
        (0, 0, 2),
        (0, 1, 1),
        (1, 0, 1),
        (0, 2, 0),
        (1, 1, 0),
        (2, 0, 0),
    ]


def test_colex_max_of_example_vertices():
    vs = [(1, 0, 1), (2, 0, 0), (0, 2, 0), (1, 1, 0)]
    assert max(vs, key=lambda a: tuple(reversed(a))) == (1, 0, 1)


def test_last_disagreement():
    assert last_disagreement((1, 0, 1), (2, 0, 0)) == 2
    assert last_disagreement((1, 0, 1), (1, 0, 1)) is NEG_INF
    assert last_disagreement((1, 0, 1), (1, 1, 0)) == 2
    with pytest.raises(LengthMismatch):
        last_disagreement((1, 0), (1, 0, 1))
    # equal weights can never disagree only at the first slot
    for a in weak_compositions(3, 3):
        for b in weak_compositions(3, 3):
            if a != b:
                assert last_disagreement(a, b) >= 1


def test_expand_examples(running):
    assert format_monomial(running.power_monomial((1, 0, 1)), running.variables) == (
        "x*y*z*u"
    )
    assert running.power_monomial((0, 0, 0)).is_one()
    assert format_monomial(running.power_monomial((1, 1, 0)), running.variables) == (
        "x*y^2*z"
    )


def test_uniqueness(running, path4):
    assert uniqueness_check(running, 2)
    assert uniqueness_check(running, 0)
    assert uniqueness_check(path4, 2)
    assert PowerBasis(path4, 2).size == 10


def test_duplicate_generator_detected(running):
    class Fake:
        q = 2
        variables = running.variables

        def power_monomial(self, a):
            return running.power_monomial((a[0] + a[1], 0, 0))

    with pytest.raises(DuplicateGenerator):
        uniqueness_check(Fake(), 2)


def test_moves(running):
    joints = running.joints  # (0, 0, 1)
    assert move_to_joint((1, 0, 1), 2, joints) == (1, 1, 0)
    assert move_to_joint((2, 0, 0), 0, joints) == (2, 0, 0)
    assert move_to_joint((0, 1, 1), 1, joints) == (1, 0, 1)
    with pytest.raises(NotInSupport):
        move_to_joint((1, 0, 1), 1, joints)
    for slot in (-1, 3):  # outside the vector, not an index from its end
        with pytest.raises(NotInSupport):
            move_to_joint((1, 0, 1), slot, joints)
        with pytest.raises(NotInSupport):
            move_many((1, 0, 1), (slot,), joints)


def test_move_many(running):
    joints = running.joints
    assert move_many((0, 1, 1), (), joints) == (0, 1, 1)
    assert move_many((0, 1, 1), {1, 2}, joints) == (1, 1, 0)


def test_move_many_splits_over_disjoint_subsets(running):
    joints = running.joints
    for a in weak_compositions(3, 3):
        slots = sorted(support(a) - {0})
        for k in range(len(slots) + 1):
            for D in combinations(slots, k):
                for t in range(len(D) + 1):
                    for D1 in combinations(D, t):
                        D2 = tuple(j for j in D if j not in D1)
                        step = move_many(a, D1, joints)
                        assert move_many(a, D, joints) == move_many(
                            step, D2, joints
                        )


def test_descent_family(running):
    joints = running.joints
    assert descent_family((1, 0, 1), joints) == {(1, 0, 1), (1, 1, 0)}
    assert descent_family((2, 0, 0), joints) == {(2, 0, 0)}
    assert descent_family((0, 1, 1), joints) == {(0, 1, 1), (1, 0, 1), (0, 2, 0)}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_moves_descend_and_disagree(running, path4, star3, r):
    # moves at larger slots give colex-smaller vectors, with the expected
    # disagreement indices, checked for every weight-r vector
    for og in (running, path4, star3):
        joints = og.joints
        for a in weak_compositions(r, og.q):
            slots = sorted(support(a) - {0})
            for j in slots:
                pj = move_to_joint(a, j, joints)
                assert colex_key(pj) < colex_key(a)
                assert last_disagreement(a, pj) == j
                for k in slots:
                    if j < k:
                        pk = move_to_joint(a, k, joints)
                        assert colex_key(pk) < colex_key(pj)
                        assert last_disagreement(pj, pk) == k


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lcm_absorbs_move_at_disagreement(running, path4, star3, r):
    # lcm(m_a, m_b) already contains the move of m_a at the largest
    # disagreement with any colex-smaller b: exhaustive over ordered pairs
    from morsepow import divides, lcm

    for og in (running, path4, star3):
        joints = og.joints
        vectors = power_vectors(og.q, r)
        for ai, a in enumerate(vectors):
            for b in vectors[ai + 1 :]:  # b strictly colex-smaller than a
                k = last_disagreement(a, b)
                moved = og.power_monomial(move_to_joint(a, k, joints))
                pair = lcm(og.power_monomial(a), og.power_monomial(b))
                assert divides(moved, pair)


def test_power_basis_index_and_families(running):
    basis = PowerBasis(running, 2)
    assert basis.vectors[0] == (0, 0, 2)
    assert basis.index_of[(2, 0, 0)] == 5
    i = basis.index_of[(1, 0, 1)]
    assert basis.family_indices(i) == {i, basis.index_of[(1, 1, 0)]}
    assert basis.move_index(i, 2) == basis.index_of[(1, 1, 0)]


def summed_exponents(og, r):
    """Each power generator's dense exponents as the exponents of the
    m_i summed a_i times each: the form ``PowerBasis`` replaced, kept as
    its oracle."""
    n = len(og.variables)
    out = []
    for a in power_vectors(og.q, r):
        x = [0] * n
        for g, e in zip(og.generators, a):
            for v, k in g.exps:
                x[v] += e * k
        out.append(tuple(x))
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tree_ideals(LABEL_SHAPES))
@example(FIXED_CASES[2])
@example((ordered(*ideal(["x*y"], "xyz")), 3))
def test_exponents_from_complement_facets(case):
    og, r = case
    assert PowerBasis(og, r).exponents == summed_exponents(og, r)
