import warnings
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morsepow import (
    InvalidJointChoice,
    Monomial,
    NotProjectiveDimensionOne,
    SimplicialComplex,
    Variables,
    check_pd1,
    divides,
    format_monomial,
    lcm,
    order_generators,
    resolution_tree,
    taylor_betti,
)
from conftest import ideal, path_complement_ideal


def fmt(og, monomial):
    return format_monomial(monomial, og.variables)


def test_running_example_order_and_joints(running):
    assert [fmt(running, g) for g in running.generators] == ["x*y", "y*z", "z*u"]
    assert running.joints == (0, 0, 1)
    assert running.permutation == (0, 1, 2)


def test_single_generator(single):
    assert single.joints == (0,)
    assert single.q == 1


def test_path4_keeps_user_order(path4):
    assert path4.joints == (0, 0, 1, 2)
    assert [fmt(path4, g) for g in path4.generators] == [
        "z*u*v",
        "x*u*v",
        "x*y*v",
        "x*y*z",
    ]


def test_star_every_joint_is_first(star3):
    assert star3.joints == (0, 0, 0)


def test_not_pd_one_raises(tetra_gens):
    gens, variables = tetra_gens
    with pytest.raises(NotProjectiveDimensionOne) as info:
        order_generators(gens, variables)
    assert info.value.remaining_facets


def test_check_pd1(running, tetra_gens):
    gens, variables = ideal(["x*y", "y*z", "z*u"])
    ok, witness = check_pd1(gens, variables)
    assert ok and witness.joints == (0, 0, 1)
    gens, variables = tetra_gens
    ok, witness = check_pd1(gens, variables)
    assert not ok and witness is None


def test_scrambled_input_is_reordered_and_reported():
    gens, variables = ideal(["z*u", "x*y", "y*z"])
    og = order_generators(gens, variables)
    assert og.permutation != (0, 1, 2)
    assert sorted(og.permutation) == [0, 1, 2]
    # the reordered generators satisfy the joint conditions
    for i in range(1, og.q):
        for h in range(i):
            assert og.facets[i] & og.facets[h] <= og.facets[og.joints[i]]


def test_resolution_tree_running(running):
    tree = resolution_tree(running)
    labels = {(min(i, j) + 1, max(i, j) + 1): fmt(running, m) for i, j, m in tree.edges}
    assert labels == {(1, 2): "x*y*z", (2, 3): "y*z*u"}


def test_resolution_tree_path4(path4):
    tree = resolution_tree(path4)
    assert [(j + 1, i + 1) for i, j, _ in tree.edges] == [(1, 2), (2, 3), (3, 4)]


def test_resolution_tree_single(single):
    assert resolution_tree(single).edges == ()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_path_complement_family_is_pd1(q):
    import warnings

    gens, variables = path_complement_ideal(q)
    with warnings.catch_warnings():
        # at q=2 the middle path vertex appears in no generator
        warnings.simplefilter("ignore")
        og = order_generators(gens, variables)
    assert og.joints == tuple(max(i - 1, 0) for i in range(q))


def all_test_structures(running, path4, star3, pair2, single):
    return [running, path4, star3, pair2, single]


def test_joint_divides_every_pairwise_lcm(running, path4, star3, pair2, single):
    # m_tau(i) divides lcm(m_i, m_j) for every j < i
    for og in all_test_structures(running, path4, star3, pair2, single):
        for i in range(1, og.q):
            for j in range(i):
                assert divides(
                    og.generators[og.joints[i]],
                    lcm(og.generators[i], og.generators[j]),
                )


def test_each_generator_misses_a_common_variable(running, path4, star3, pair2, single):
    # for i >= 2 some variable divides every earlier generator but not m_i
    for og in all_test_structures(running, path4, star3, pair2, single):
        for i in range(1, og.q):
            witnesses = [
                v
                for v in range(len(og.variables))
                if og.generators[i].exponent(v) == 0
                and all(og.generators[j].exponent(v) == 1 for j in range(i))
            ]
            assert witnesses
            assert set(og.free_sets[i]) <= set(witnesses)


def test_free_sets_nonempty(running, path4, star3, pair2, single):
    for og in all_test_structures(running, path4, star3, pair2, single):
        for i in range(1, og.q):
            assert og.free_sets[i]


def test_joints_override_validated(running):
    gens, variables = ideal(["x*y", "y*z", "z*u"])
    with pytest.raises(InvalidJointChoice):
        order_generators(gens, variables, joints_override=[0, 0, 0])
    og = order_generators(gens, variables, joints_override=[0, 0, 1])
    assert og.joints == (0, 0, 1)
    for bad in ([0, 0], [1, 0, 1], [0, 1, 1], [0, 0, 2], [0, 0, -1]):
        with pytest.raises(InvalidJointChoice):
            order_generators(gens, variables, joints_override=bad)
    # a lone generator has no joint to choose, but the list is still checked
    gens, variables = ideal(["x*y"])
    for bad in ([2, 6], [1], []):
        with pytest.raises(InvalidJointChoice):
            order_generators(gens, variables, joints_override=bad)
    assert order_generators(gens, variables, joints_override=[0]).joints == (0,)


def test_joints_override_allows_second_joint():
    # with b declared but unused, the complement facets form a star
    # around b and the third facet has two valid joints
    gens, variables = ideal(["c*d", "a*d", "a*c"], "abcd")
    with pytest.warns(UserWarning):
        og = order_generators(gens, variables, joints_override=[0, 0, 1])
    assert og.joints == (0, 0, 1)


def test_unused_declared_variable_warns():
    gens, variables = ideal(["c*d", "a*d", "a*c"], "abcd")
    with pytest.warns(UserWarning, match="appear in no generator"):
        order_generators(gens, variables)


def test_duplicate_generators_rejected():
    gens, variables = ideal(["x*y", "x*y"])
    with pytest.raises(Exception):
        order_generators(gens, variables)


@st.composite
def graph_ideals(draw):
    """A random simple graph on n >= 3 vertices with at least one edge,
    as the ideal whose complement facets are its edges (generator e is
    the product of the variables outside e), edges in a random order."""
    n = draw(st.integers(3, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=n, unique=True))
    gens = [Monomial.from_dict({v: 1 for v in range(n) if v not in e}) for e in edges]
    return edges, gens, Variables([f"x_{v}" for v in range(n)])


def is_forest(edges):
    parent = {}

    def root(v):
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph_ideals())
def test_pd1_exactly_on_forest_graphs(case):
    # a graph is a quasi-forest exactly when it is a forest; judged here by
    # union-find, and the order and joints by the leaf definition itself
    edges, gens, variables = case
    with warnings.catch_warnings():
        # a vertex on every edge is a variable in no generator
        warnings.simplefilter("ignore")
        ok, og = check_pd1(gens, variables)
    assert ok == is_forest(edges)
    if not ok or og.q == 1:
        return
    assert list(og.facets) == [frozenset(edges[k]) for k in og.permutation]
    for i in range(1, og.q):
        prefix = SimplicialComplex(variables, og.facets[: i + 1])
        *earlier, facet = prefix.facets
        touched = frozenset()
        for g in earlier:
            touched |= facet & g
        valid = [u for u, g in enumerate(earlier) if touched <= g]
        assert valid, f"facet {i} is not a leaf of its prefix"
        assert og.joints[i] == valid[0]


@st.composite
def squarefree_ideals(draw):
    """A random minimally generated square-free monomial ideal: at most
    six generators over at most six variables, maybe some unused."""
    n = draw(st.integers(1, 6))
    supports = [frozenset(s) for k in range(1, n + 1) for s in combinations(range(n), k)]
    drawn = draw(st.lists(st.sampled_from(supports), min_size=1, max_size=6, unique=True))
    # keep the minimal supports, so that no generator divides another
    minimal = [s for s in drawn if not any(t < s for t in drawn)]
    gens = [Monomial.from_dict(dict.fromkeys(s, 1)) for s in minimal]
    return gens, Variables([f"x_{v}" for v in range(n)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(squarefree_ideals())
@example(ideal(["x", "y", "z"]))  # the Koszul complex: pd 2
@example(ideal(["x*y", "y*z", "z*u"]))
def test_pd1_exactly_when_taylor_betti_measures_it(case):
    # the matching-free Taylor oracle: homological degree i reads the
    # faces of i + 1 generators, so pd <= 1 means no degree above 1
    gens, variables = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ok, _ = check_pd1(gens, variables)
    assert ok == (max(i for i, _ in taylor_betti(gens)) <= 1)
