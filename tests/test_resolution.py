import copy
from math import comb

import pytest
from hypothesis import example, given, settings

from morsepow import (
    ONE,
    betti,
    betti_closed_form,
    build_resolution,
    dstab,
    format_monomial,
    pd_computed,
    pd_formula,
    pd_sequence,
    strand_degrees,
    support,
    verify_d2,
    verify_minimality,
    verify_strand_acyclicity,
    verify_strands,
    weak_compositions,
)
from conftest import FIXED_CASES, LABEL_SHAPES, exact_quotient, path_complement_ideal, tree_ideals


@pytest.fixture(scope="module")
def res2(running):
    return build_resolution(None, 2, og=running)


@pytest.fixture(scope="module")
def res1(running):
    return build_resolution(None, 1, og=running)


def test_running_example_ranks(res2):
    assert res2.ranks() == (6, 6, 1)
    assert res2.length == 2


def test_tree_recovered_at_power_one(res1, running):
    assert res1.ranks() == (3, 2)
    labels = {format_monomial(m, running.variables) for m in res1.labels[1]}
    assert labels == {"x*y*z", "y*z*u"}
    shifts = {
        format_monomial(shift, running.variables)
        for _, shift in res1.maps[1].values()
    }
    assert shifts == {"x", "y", "z", "u"}
    assert verify_minimality(res1)
    assert verify_strand_acyclicity(res1, 0)


def test_path4_ranks(path4):
    complex = build_resolution(None, 2, og=path4)
    assert complex.ranks() == (10, 12, 3)
    assert complex.length == 2


def test_betti_table(res2, running):
    table = betti(res2)
    assert table.totals == (6, 6, 1)
    assert sum(table.multigraded.values()) == 13
    assert all(count == 1 for count in table.multigraded.values())
    top = [m for (i, m), _ in table.multigraded.items() if i == 2]
    assert [format_monomial(m, running.variables) for m in top] == ["x*y^2*z^2*u"]
    json_form = table.to_json()
    assert json_form["total"] == [6, 6, 1]
    assert len(json_form["multigraded"]) == 13
    grid = table.render()
    assert "total:" in grid and "6" in grid


def test_betti_closed_form_and_alternating_sum(running, path4, star3, pair2, single):
    for og, r in [
        (running, 1),
        (running, 2),
        (running, 3),
        (path4, 2),
        (star3, 2),
        (pair2, 3),
        (single, 4),
    ]:
        complex = build_resolution(None, r, og=og)
        totals = betti(complex).totals
        assert totals == betti_closed_form(og.q, r)
        assert sum((-1) ** i * b for i, b in enumerate(totals)) == 1
    # the closed form against the direct count: each weight-r vector
    # contributes C(|supp(a) minus slot 0|, i) in degree i
    for q in range(1, 7):
        for r in range(1, 7):
            sizes = [len(support(a) - {0}) for a in weak_compositions(r, q)]
            expected = tuple(
                sum(comb(s, i) for s in sizes) for i in range(max(sizes) + 1)
            )
            assert betti_closed_form(q, r) == expected, (q, r)


def test_pair2_betti_at_power_three(pair2):
    assert betti(build_resolution(None, 3, og=pair2)).totals == (4, 3)


def test_pd_formula_branches():
    assert pd_formula(3, 2) == 2
    assert pd_formula(4, 2) == 2
    assert pd_formula(4, 5) == 3
    assert pd_formula(1, 7) == 0
    with pytest.raises(ValueError):
        pd_formula(0, 1)


def test_pd_computed_matches_formula(res1, res2, single):
    assert pd_computed(res1) == 1 == pd_formula(3, 1)
    assert pd_computed(res2) == 2 == pd_formula(3, 2)
    assert pd_computed(build_resolution(None, 5, og=single)) == 0


def test_dstab_and_sequence():
    assert dstab(3) == 2
    assert dstab(1) == 0
    assert dstab(4) == 3
    assert pd_sequence(4) == (1, 2, 3, 3)
    assert pd_sequence(1, up_to=3) == (0, 0, 0)


def test_minimality(res2):
    assert verify_minimality(res2)


def test_minimality_negative_control(res2):
    broken = copy.deepcopy(res2)
    (key, (coeff, _)), *_ = sorted(broken.maps[1].items())
    broken.maps[1][key] = (coeff, ONE)
    assert not verify_minimality(broken)


def test_d2(res2, res1):
    assert verify_d2(res2)
    assert verify_d2(res1)  # vacuous for a length-one complex


def test_d2_negative_control(res2):
    broken = copy.deepcopy(res2)
    (key, (coeff, shift)), *_ = sorted(broken.maps[2].items())
    broken.maps[2][key] = (-coeff, shift)
    assert not verify_d2(broken)


def test_wrong_shift_negative_control(res2):
    # one shift times a variable, its coefficient kept: the integer
    # matrices still compose to zero, but the labels are not respected
    from morsepow import Monomial, mul

    broken = copy.deepcopy(res2)
    (key, (coeff, shift)), *_ = sorted(broken.maps[2].items())
    broken.maps[2][key] = (coeff, mul(shift, Monomial.from_dict({0: 1})))
    assert verify_d2(res2) and verify_strands(res2, (0, 2, 3)) == {0: True, 2: True, 3: True}
    assert not verify_d2(broken)
    assert verify_strands(broken, (0, 2, 3)) == {0: False, 2: False, 3: False}


def test_strand_acyclicity(res2):
    assert verify_strand_acyclicity(res2, 0)
    assert verify_strand_acyclicity(res2, 2)


def test_strand_acyclicity_single_vertex(single):
    complex = build_resolution(None, 2, og=single)
    assert complex.ranks() == (1,)
    assert verify_strand_acyclicity(complex, 0)
    # no cell at all: no strand degree, nothing to fail
    from morsepow import ChainComplex

    assert verify_strands(ChainComplex(None, 1, [], [], {}), (0, 2)) == {0: True, 2: True}


def test_strand_acyclicity_negative_control(res2):
    broken = copy.deepcopy(res2)
    (key, (coeff, shift)), *_ = sorted(broken.maps[2].items())
    broken.maps[2][key] = (-coeff, shift)
    assert not verify_strand_acyclicity(broken, 0)
    assert not verify_strand_acyclicity(broken, 2)
    # one shared pass fails every field
    assert verify_strands(broken, (0, 2, 3)) == {0: False, 2: False, 3: False}


def test_strand_acyclicity_rational_fallback():
    # a Z-complex exact over Q but not over GF(2): one vertex, one edge
    # with zero boundary, one 2-cell with boundary 2*edge, all labelled x;
    # the char-0 verdict must come from exact rational elimination
    from morsepow import ChainComplex, Monomial

    x = Monomial.from_dict({0: 1})
    complex = ChainComplex(
        None, 1, [[None], [None], [None]], [[x], [x], [x]],
        {1: {}, 2: {(0, 0): (2, Monomial(()))}},
    )
    assert verify_strand_acyclicity(complex, 0)
    assert verify_strand_acyclicity(complex, 3)
    assert not verify_strand_acyclicity(complex, 2)
    # in one pass the failed GF(2) rank, shared with char 0, decides neither
    # char 0 nor char 3
    assert verify_strands(complex, (0, 2, 3)) == {0: True, 2: False, 3: True}
    assert verify_strands(complex, (2, 0)) == {2: False, 0: True}
    # with boundary 3*edge instead the strand is exact over GF(2) and Q but
    # not over GF(3), so a passing GF(2) rank must not decide char 3 either
    complex.maps[2] = {(0, 0): (3, Monomial(()))}
    assert verify_strands(complex, (0, 2, 3)) == {0: True, 2: True, 3: False}


def test_strand_degrees_join_labels_outside_the_vertex_closure():
    # in a hand-built complex a label need not be an lcm of vertex labels
    from morsepow import ChainComplex, Monomial

    x, y, z = (Monomial.from_dict({i: 1}) for i in range(3))
    xy, xz = Monomial.from_dict({0: 1, 1: 1}), Monomial.from_dict({0: 1, 2: 1})
    xyz = Monomial.from_dict({0: 1, 1: 1, 2: 1})
    complex = ChainComplex(None, 1, [[None], [None, None]], [[x], [xy, xz]], {1: {}})
    assert strand_degrees(complex) == sorted([x, xy, xz, xyz])


def _lcm_fixpoint(labels):
    """The labels closed under pairwise lcm, by joining every pair of the
    closure until nothing new appears."""
    from morsepow import lcm

    closed = set(labels)
    while new := {lcm(a, b) for a in closed for b in closed} - closed:
        closed |= new
    return sorted(closed)


def test_strand_degrees_with_mixed_exponents():
    # vertex labels x^3*y, x*y^2, z, and a degree-1 label y^3 outside
    # their closure, so the unary fields have width 3
    from morsepow import ChainComplex, Monomial

    labels = [
        [Monomial.from_dict(e) for e in ({0: 3, 1: 1}, {0: 1, 1: 2}, {2: 1})],
        [Monomial.from_dict({1: 3})],
    ]
    complex = ChainComplex(None, 1, [[None] * 3, [None]], labels, {1: {}})
    degrees = strand_degrees(complex)
    assert degrees == _lcm_fixpoint(labels[0] + labels[1])
    assert len(degrees) == 13  # 7 lcms of the vertices, 6 more with y^3


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(tree_ideals())
def test_strand_degrees_are_the_lcm_fixpoint_on_trees(case):
    og, r = case
    complex = build_resolution(None, r, og=og)
    labels = [m for group in complex.labels for m in group]
    assert strand_degrees(complex) == _lcm_fixpoint(labels)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(tree_ideals())
def test_single_field_wrapper_is_the_shared_pass(case):
    og, r = case
    complex = build_resolution(None, r, og=og)
    verdicts = verify_strands(complex, (0, 2, 3))
    assert verdicts == {0: True, 2: True, 3: True}
    for char, ok in verdicts.items():
        assert verify_strand_acyclicity(complex, char) == ok


def test_non_prime_rejected_before_any_strand(res2, monkeypatch):
    import morsepow.resolution as resolution

    checked = []
    monkeypatch.setattr(resolution, "_strand_is_acyclic", lambda *a: checked.append(a))
    with pytest.raises(ValueError, match="prime"):
        verify_strands(res2, (0, 2, 4))
    assert checked == []


def test_strand_that_is_not_a_complex_fails_every_field():
    # the Koszul complex of (x, y, z) with d(e_xy) = a + b - 2c instead of
    # b - a and d(t) = e_xy + e_xz + e_yz: a complex over Z whose strands
    # are all exact except that the strand x*y drops c, keeps d(e_xy) =
    # a + b, and so is no complex over Z, though its ranks over Q, GF(2)
    # and GF(3) are those of an exact one.  The entry e_xy -> c has no
    # true shift, since z does not divide x*y, so the label check fails
    from morsepow import ChainComplex, Monomial

    one = Monomial(())
    x, y, z = (Monomial.from_dict({i: 1}) for i in range(3))
    xy, xz, yz = (Monomial.from_dict({i: 1, j: 1}) for i, j in ((0, 1), (0, 2), (1, 2)))
    xyz = Monomial.from_dict({0: 1, 1: 1, 2: 1})
    d1 = {(0, 0): 1, (1, 0): 1, (2, 0): -2, (0, 1): -1, (2, 1): 1, (1, 2): -1, (2, 2): 1}
    # the shift of each entry: its column label over its row label
    s1 = {(0, 0): y, (1, 0): x, (2, 0): one, (0, 1): z, (2, 1): x, (1, 2): z, (2, 2): y}
    maps = {
        1: {rc: (c, s1[rc]) for rc, c in d1.items()},
        2: {(row, 0): (1, s) for row, s in enumerate((z, y, x))},
    }
    complex = ChainComplex(
        None, 1, [[None] * 3, [None] * 3, [None]], [[x, y, z], [xy, xz, yz], [xyz]], maps
    )
    assert not verify_d2(complex)
    # the label check fails before any strand is read
    assert verify_strands(complex, (0, 2, 3)) == {0: False, 2: False, 3: False}
    # with b - a restored it is the Koszul complex, exact in every strand
    # (d(t) then needs the alternating signs)
    maps[1][(0, 0)] = (-1, y)
    del maps[1][(2, 0)]
    maps[2][(1, 0)] = (-1, y)
    assert verify_d2(complex)
    assert verify_strands(complex, (0, 2, 3)) == {0: True, 2: True, 3: True}


def test_label_check_does_not_carry_between_variables():
    # x * x is not y: with one bit per variable field the packed sum of
    # the exponents 1 + 1 would carry into the field of y
    from morsepow import ChainComplex, Monomial

    x, y = Monomial.from_dict({0: 1}), Monomial.from_dict({1: 1})
    complex = ChainComplex(None, 1, [[None], [None]], [[x], [y]], {1: {(0, 0): (1, x)}})
    assert not verify_d2(complex)


@pytest.mark.parametrize("char", [-2, 1, 4, 6, 9, 91, 561])
def test_non_prime_characteristics_rejected(res2, running, char):
    from morsepow import taylor_betti

    with pytest.raises(ValueError, match="prime"):
        verify_strand_acyclicity(res2, char)
    with pytest.raises(ValueError, match="prime"):
        taylor_betti(running.generators, char)


def test_prime_characteristics_accepted(res2):
    for char in (3, 5, 7, 101, 2**61 - 1):
        assert verify_strand_acyclicity(res2, char)


def test_strand_degrees_closed_under_lcm(res2):
    from morsepow import lcm

    degrees = strand_degrees(res2)
    labels = {m for group in res2.labels for m in group}
    assert labels <= set(degrees)
    for a in degrees:
        for b in degrees:
            assert lcm(a, b) in set(degrees)


def test_every_label_comes_from_free_vertex_formula(res2, running):
    # multigraded degrees are the vector monomial times free vertices
    from morsepow import MorseComplex, PowerBasis, TaylorMatching, mul, squarefree_part

    morse = MorseComplex(TaylorMatching(PowerBasis(running, 2)))
    for i, cells in enumerate(res2.basis):
        for cell, label in zip(cells, res2.labels[i]):
            rebuilt = running.power_monomial(cell.a)
            for j in cell.moves:
                rebuilt = mul(rebuilt, squarefree_part(running.free_sets[j]))
            assert rebuilt == label


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tree_ideals(LABEL_SHAPES))
@example(FIXED_CASES[0])
@example(FIXED_CASES[1])
@example(FIXED_CASES[2])
@example(FIXED_CASES[3])
def test_entry_shifts_are_label_ratios(case):
    # the closed-form per-slot shifts against the ratios of the labels
    og, r = case
    complex = build_resolution(None, r, og=og)
    for i in range(1, complex.length + 1):
        assert complex.maps[i]
        for (row, col), (_, shift) in complex.maps[i].items():
            assert shift == exact_quotient(complex.labels[i][col], complex.labels[i - 1][row])


def test_build_walks_no_gradient_flow(running, monkeypatch):
    # the columns come from the closed-form cube boundary: neither the
    # matching's pivots nor the gradient-path search are consulted
    from morsepow import MorseComplex, TaylorMatching

    expected = build_resolution(None, 3, og=running)

    def forbidden(*args, **kwargs):
        raise RuntimeError("the build walked gradient paths")

    monkeypatch.setattr(TaylorMatching, "pivot", forbidden)
    monkeypatch.setattr(MorseComplex, "gradient_paths", forbidden)
    complex = build_resolution(None, 3, og=running)
    assert complex.basis == expected.basis
    assert complex.labels == expected.labels
    assert complex.maps == expected.maps
    assert complex.maps[2]


def test_build_from_raw_generators():
    from conftest import ideal

    gens, variables = ideal(["x*y", "y*z", "z*u"])
    complex = build_resolution(gens, 2, variables)
    assert complex.ranks() == (6, 6, 1)


def test_build_rejects_bad_power(running):
    with pytest.raises(ValueError):
        build_resolution(None, 0, og=running)


def test_joint_override_gives_same_betti():
    # a star complement with two valid joints for the third facet:
    # the resolutions differ cell by cell but the Betti numbers agree
    from conftest import ideal
    from morsepow import order_generators

    gens, variables = ideal(["c*d", "a*d", "a*c"], "abcd")
    with pytest.warns(UserWarning):
        og_default = order_generators(gens, variables)
        og_other = order_generators(gens, variables, joints_override=[0, 0, 1])
    assert og_default.joints == (0, 0, 0)
    for r in (1, 2, 3):
        b1 = betti(build_resolution(None, r, og=og_default))
        b2 = betti(build_resolution(None, r, og=og_other))
        assert b1.totals == b2.totals
        assert b1.multigraded == b2.multigraded


def test_taylor_homology_oracle_on_tree(running):
    from morsepow import parse_monomial, taylor_betti

    tb = taylor_betti(running.generators)
    v = running.variables
    assert tb == {
        (0, parse_monomial("x*y", v)): 1,
        (0, parse_monomial("y*z", v)): 1,
        (0, parse_monomial("z*u", v)): 1,
        (1, parse_monomial("x*y*z", v)): 1,
        (1, parse_monomial("y*z*u", v)): 1,
    }


def test_taylor_homology_oracle_matches_morse_resolution(running, star3, pair2):
    # feed the power generators to the classical Taylor-homology oracle
    # as a plain monomial ideal; its multigraded Betti numbers must match
    # the Morse resolution's, over the rationals and over GF(2)
    from morsepow import PowerBasis, taylor_betti

    for og, r in [(running, 2), (star3, 2), (pair2, 3)]:
        monomials = PowerBasis(og, r).monomials
        expected = betti(build_resolution(None, r, og=og)).multigraded
        assert taylor_betti(monomials) == expected
        assert taylor_betti(monomials, char=2) == expected


def test_taylor_homology_oracle_measures_pd_three(tetra_gens):
    # the ideal whose complement facets bound a tetrahedron is rejected
    # by the pd-one pipeline; the oracle confirms its pd really is 3
    from morsepow import taylor_betti

    gens, _ = tetra_gens
    tb = taylor_betti(gens)
    assert max(i for i, _ in tb) == 3
    assert sum(c for (i, _), c in tb.items() if i == 0) == 4
    totals = [0, 0, 0, 0]
    for (i, _), c in tb.items():
        totals[i] += c
    assert totals == [4, 6, 4, 1]  # the Koszul ranks on four variables


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_pd_family(q):
    if q == 1:
        from conftest import ideal
        from morsepow import order_generators

        gens, variables = ideal(["a*b"])
        og = order_generators(gens, variables)
    else:
        import warnings

        from morsepow import order_generators

        gens, variables = path_complement_ideal(q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            og = order_generators(gens, variables)
    for r in (1, 2, 3):
        complex = build_resolution(None, r, og=og)
        assert pd_computed(complex) == pd_formula(q, r) == min(r, q - 1)
        assert verify_d2(complex)
