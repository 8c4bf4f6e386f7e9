import pytest

from morsepow import (
    ONE,
    EmptyComplementFacet,
    NotMinimalGenerating,
    NotQuasiForest,
    NotSquarefree,
    ParseError,
    SimplicialComplex,
    Variables,
    complement,
    facet_complex,
    find_joints,
    free_vertices,
    is_leaf_order,
    order_generators,
    parse_generators,
    quasi_forest_order,
)

XYZU = Variables("xyzu")


def cx(variables, *facets):
    return SimplicialComplex(
        variables, [frozenset(variables.index(v) for v in f) for f in facets]
    )


def names(variables, vertex_set):
    return set(variables.name(v) for v in vertex_set)


@pytest.fixture
def running_complement():
    # complements of the supports of (xy, yz, zu)
    return cx(XYZU, "zu", "xu", "xy")


@pytest.fixture
def tetra_boundary():
    variables = Variables("abcd")
    return cx(variables, "abd", "acd", "bcd", "abc")


def test_facet_complex_of_generators():
    gens, variables = parse_generators(["x*y", "y*z", "z*u"])
    delta = facet_complex(gens, variables)
    assert [names(variables, f) for f in delta.facets] == [
        {"x", "y"},
        {"y", "z"},
        {"z", "u"},
    ]


def test_facet_complex_single_facet():
    gens, variables = parse_generators(["x*y*z"])
    assert facet_complex(gens, variables).q == 1


def test_facet_complex_rejects_bad_input():
    gens, variables = parse_generators(["x*y", "x*y*z"])
    with pytest.raises(NotMinimalGenerating):
        facet_complex(gens, variables)
    gens, variables = parse_generators(["x^2*y"])
    with pytest.raises(NotSquarefree):
        facet_complex(gens, variables)
    # a unit generator, as in the one-edge tree ideal, is a typed input error
    with pytest.raises(ParseError):
        facet_complex([ONE], XYZU)
    with pytest.raises(ParseError):
        order_generators([ONE], XYZU)


def test_complement_of_running_example():
    gens, variables = parse_generators(["x*y", "y*z", "z*u"])
    delta_c = complement(facet_complex(gens, variables))
    assert [names(variables, f) for f in delta_c.facets] == [
        {"z", "u"},
        {"x", "u"},
        {"x", "y"},
    ]


def test_complement_rejects_full_facet():
    variables = Variables("xyz")
    with pytest.raises(EmptyComplementFacet):
        complement(cx(variables, "xyz"))


def test_complement_is_involution(running_complement, tetra_boundary):
    for delta in (running_complement, tetra_boundary):
        assert complement(complement(delta)) == delta


def test_find_joints_example(running_complement):
    # F = {x, y}: exhaustive check over both candidates leaves only {x, u}
    cert = find_joints(running_complement, 2)
    assert cert.is_leaf
    assert [names(XYZU, running_complement.facets[i]) for i in cert.joint_indices] == [
        {"x", "u"}
    ]


def test_single_facet_is_leaf():
    delta = cx(Variables("xyz"), "xy")
    cert = find_joints(delta, 0)
    assert cert.only_facet and cert.is_leaf and cert.joint_indices == ()


def test_tetrahedron_has_no_leaf(tetra_boundary):
    for i in range(4):
        assert not find_joints(tetra_boundary, i).is_leaf


def test_quasi_forest_order_running(running_complement):
    order = quasi_forest_order(running_complement)
    assert is_leaf_order(running_complement, order)
    # the given order is itself valid
    assert is_leaf_order(running_complement, (0, 1, 2))


def test_quasi_forest_order_single_facet():
    delta = cx(Variables("xyz"), "xy")
    assert quasi_forest_order(delta) == (0,)


def test_quasi_forest_order_rejects_tetrahedron(tetra_boundary):
    with pytest.raises(NotQuasiForest) as info:
        quasi_forest_order(tetra_boundary)
    assert len(info.value.remaining_facets) == 4


def test_every_greedy_order_passes_validator(running_complement, tetra_boundary):
    variables = Variables("abcde")
    complexes = [
        running_complement,
        cx(variables, "ab", "bc", "bd", "be"),
        cx(variables, "abc", "bcd", "cde"),
        cx(variables, "ab", "cd"),
    ]
    for delta in complexes:
        assert is_leaf_order(delta, quasi_forest_order(delta))


def test_validator_rejects_bad_orders(running_complement):
    # {z,u} then {x,y} then {x,u}: {x,y} is not a leaf of the first two
    assert not is_leaf_order(running_complement, (0, 2, 1))
    assert not is_leaf_order(running_complement, (0, 1))  # not a permutation


def test_free_vertices_examples(running_complement):
    f1, f2, f3 = running_complement.facets
    assert names(XYZU, free_vertices([f1], f2)) == {"x"}
    assert free_vertices([], f2) == f2
    assert names(XYZU, free_vertices([f1, f2], f3)) == {"y"}
