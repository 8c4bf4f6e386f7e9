from itertools import combinations

import pytest

from morsepow import (
    CRITICAL,
    DOWN,
    NEG_INF,
    UP,
    EmptyFace,
    PowerBasis,
    TaylorMatching,
    TooLarge,
    divides,
    format_monomial,
    is_matching,
    vertex_matching,
    verify_matching_acyclic,
    verify_matching_homogeneous,
)


@pytest.fixture(scope="module")
def m2(running):
    """Matching for the running example squared (6 power generators)."""
    return TaylorMatching(PowerBasis(running, 2))


@pytest.fixture(scope="module")
def m1(running):
    return TaylorMatching(PowerBasis(running, 1))


def face(matching, *vectors):
    return tuple(sorted(matching.basis.index_of[v] for v in vectors))


def test_face_lcm(m1, m2, running):
    f = format_monomial(m1.face_lcm((0, 1, 2)), running.variables)
    assert f == "x*y*z*u"
    single = m2.face_lcm(face(m2, (1, 0, 1)))
    assert format_monomial(single, running.variables) == "x*y*z*u"
    pair = m2.face_lcm(face(m2, (1, 0, 1), (1, 1, 0)))
    assert format_monomial(pair, running.variables) == "x*y^2*z*u"
    with pytest.raises(EmptyFace):
        m2.face_lcm(())


def test_face_stats_worked_example(m2):
    # the four-vertex face on top of (1,0,1): level 2, pivot (1,1,0)
    sigma = face(m2, (1, 0, 1), (2, 0, 0), (0, 2, 0), (1, 1, 0))
    st = m2.face_stats(sigma)
    assert m2.basis.vectors[st.top] == (1, 0, 1)
    assert st.level == 2
    assert m2.basis.vectors[st.pivot] == (1, 1, 0)


def test_face_stats_family_faces(m2):
    st = m2.face_stats(face(m2, (1, 0, 1)))
    assert st.level is NEG_INF and st.pivot is None
    st = m2.face_stats(face(m2, (1, 0, 1), (1, 1, 0)))
    assert st.level is NEG_INF


def test_arrow_examples(m2):
    down = m2.arrow(face(m2, (1, 0, 1), (2, 0, 0), (0, 2, 0), (1, 1, 0)))
    assert down.kind == DOWN
    assert down.partner == face(m2, (1, 0, 1), (2, 0, 0), (0, 2, 0))
    up = m2.arrow(face(m2, (1, 0, 1), (2, 0, 0), (0, 2, 0)))
    assert up.kind == UP
    assert up.partner == face(m2, (1, 0, 1), (2, 0, 0), (0, 2, 0), (1, 1, 0))
    crit = m2.arrow(face(m2, (1, 0, 1), (1, 1, 0)))
    assert crit.kind == CRITICAL


def test_r1_matching_is_one_arrow(m1):
    pairs = m1.matched_pairs()
    assert pairs == [(face(m1, (1, 0, 0), (0, 1, 0), (0, 0, 1)), face(m1, (1, 0, 0), (0, 0, 1)))]
    crit = m1.critical_faces_bruteforce()
    assert len(crit) == 5  # three vertices plus the two tree edges


def test_r2_counts(m2):
    classified = m2.enumerate_arrows()
    assert len(classified) == 63
    critical = [f for f, ar in classified if ar.kind == CRITICAL]
    arrows = [f for f, ar in classified if ar.kind == DOWN]
    assert len(critical) == 13
    assert len(arrows) == 25
    assert 13 + 2 * 25 == 63


def test_single_generator_all_critical(single):
    matching = TaylorMatching(PowerBasis(single, 3))
    classified = matching.enumerate_arrows()
    assert [ar.kind for _, ar in classified] == [CRITICAL]


def test_enumeration_cap(m2):
    with pytest.raises(TooLarge) as info:
        m2.all_faces(cap=1 << 3)
    assert info.value.cap == 1 << 3


def test_matching_property_and_homogeneity(m2):
    pairs = m2.matched_pairs()
    assert is_matching(pairs)
    assert verify_matching_homogeneous(pairs, m2.face_lcm)
    faces = m2.all_faces()
    assert verify_matching_acyclic(faces, pairs)


def test_r1_homogeneity_example(m1):
    (pair,) = m1.matched_pairs()
    assert m1.face_lcm(pair[0]) == m1.face_lcm(pair[1])


def test_critical_closed_form_matches_bruteforce(m1, m2):
    for matching in (m1, m2):
        assert (
            matching.critical_faces_bruteforce()
            == matching.critical_faces_closed_form()
        )


def test_empty_matching_is_acyclic_and_homogeneous(m2):
    faces = m2.all_faces()
    assert verify_matching_acyclic(faces, [])
    assert verify_matching_homogeneous([], m2.face_lcm)


def test_cyclic_matching_detected():
    # boundary of a triangle with every edge matched to a vertex in a
    # cyclic pattern: the classic non-acyclic matching
    faces = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    arrows = [((0, 1), (1,)), ((1, 2), (2,)), ((0, 2), (0,))]
    assert is_matching(arrows)
    assert not verify_matching_acyclic(faces, arrows)
    # flipping one arrow breaks the cycle
    acyclic = [((0, 1), (1,)), ((1, 2), (2,)), ((0, 2), (2,))]
    assert not is_matching(acyclic)  # (2,) used twice
    acyclic = [((0, 1), (1,)), ((1, 2), (2,)), ((0, 2), (0,))][:2]
    assert verify_matching_acyclic(faces, acyclic)


def test_not_a_matching_detected():
    arrows = [((0, 1), (1,)), ((0, 1), (0,))]
    assert not is_matching(arrows)
    assert not verify_matching_acyclic([(0,), (1,), (0, 1)], arrows)


def test_vertex_matching_on_triangle():
    faces = [
        (0,), (1,), (2,),
        (0, 1), (0, 2), (1, 2),
        (0, 1, 2),
    ]
    arrows = vertex_matching(faces, 0)
    assert arrows == [((0, 1), (1,)), ((0, 1, 2), (1, 2)), ((0, 2), (2,))]
    assert is_matching(arrows)
    assert verify_matching_acyclic(faces, arrows)
    # with the empty face admitted, the cone matching has no critical cells
    faces_with_empty = faces + [()]
    arrows = vertex_matching(faces_with_empty, 0)
    assert len(arrows) == 4
    matched = {f for pair in arrows for f in pair}
    assert all(f in matched for f in faces_with_empty if 0 in f)


def test_vertex_matching_ignores_missing_vertex():
    assert vertex_matching([(1,)], 2) == []


def test_step3_vertex_matching_has_no_critical_cells(m2):
    # the group of faces with top (1,0,1) and level 2, matched at the
    # pivot (1,1,0), covers itself completely (worked example, power 2)
    basis = m2.basis
    top = basis.index_of[(1, 0, 1)]
    pivot = basis.index_of[(1, 1, 0)]
    group = [
        f
        for f in m2.all_faces()
        if f and f[0] == top and m2.face_stats(f).level == 2
    ]
    assert len(group) == 6
    arrows = vertex_matching(group, pivot)
    assert len(arrows) == 3
    matched = {f for pair in arrows for f in pair}
    assert matched == set(group)


def test_cluster_decomposition(m2):
    # the global matching is exactly the union of the per-(top, level)
    # vertex matchings
    groups = {}
    for f in m2.all_faces():
        st = m2.face_stats(f)
        if st.level is not NEG_INF:
            groups.setdefault((st.top, st.level, st.pivot), []).append(f)
    rebuilt = []
    for (_, _, pivot), faces in sorted(groups.items()):
        rebuilt.extend(vertex_matching(faces, pivot))
    assert sorted(rebuilt) == sorted(m2.matched_pairs())


def down_closed_subsets(m2):
    faces = m2.all_faces()
    subsets = []
    # lcm-bounded subcomplexes for a few strand degrees
    for f in [(0, 1), (1, 2, 3), (0, 1, 2, 3, 4, 5)]:
        bound = m2.face_lcm(f)
        subsets.append(
            [g for g in faces if divides(m2.face_lcm(g), bound)]
        )
    # dimension truncations
    subsets.append([g for g in faces if len(g) <= 2])
    # the full simplex on a vertex subset
    subsets.append([g for g in faces if set(g) <= {0, 2, 4}])
    return subsets


def test_matching_restricted_to_down_closed_sets_stays_acyclic(m2):
    pairs = m2.matched_pairs()
    for sub in down_closed_subsets(m2):
        sub_set = set(sub)
        sub_pairs = [p for p in pairs if p[0] in sub_set and p[1] in sub_set]
        assert verify_matching_acyclic(sub, sub_pairs)


def test_partition_monotonicity(m2):
    # within faces sharing a top vertex, subfaces never have a larger
    # level; tops of subfaces are never colex-larger (exhaustive)
    for f in m2.all_faces():
        st = m2.face_stats(f)
        for k in range(1, len(f) + 1):
            for sub in combinations(f, k):
                st2 = m2.face_stats(sub)
                assert st2.top >= st.top  # smaller index = colex-larger
                if st2.top == st.top:
                    lv1 = -1 if st.level is NEG_INF else st.level
                    lv2 = -1 if st2.level is NEG_INF else st2.level
                    assert lv2 <= lv1


def test_involution_check_survives_optimize_flag():
    import subprocess
    import sys

    script = """
from morsepow import CRITICAL, DOWN, MatchArrow, TaylorMatching, VerificationFailed
from morsepow import PowerBasis, order_generators, parse_generators
arrow = TaylorMatching.arrow
def broken(self, face):
    ar = arrow(self, face)
    return MatchArrow(CRITICAL, None, None) if ar.kind == DOWN else ar
TaylorMatching.arrow = broken
gens, variables = parse_generators(["x*y", "y*z", "z*u"])
try:
    TaylorMatching(PowerBasis(order_generators(gens, variables), 2)).enumerate_arrows()
except VerificationFailed:
    raise SystemExit(0)
raise SystemExit(1)
"""
    from conftest import src_env

    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
