import random
from functools import cache
from itertools import combinations, filterfalse
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morsepow import (
    NEG_INF,
    EmptyFace,
    FaceClasses,
    PowerBasis,
    TaylorMatching,
    TooLarge,
    divides,
    format_monomial,
    is_matching,
    verify_matching_acyclic,
    verify_matching_homogeneous,
)
from morsepow.matching import ABSENT, UNMATCHED, face_mask, incidence
from morsepow.monomials import bit_positions, unary_codes
from conftest import FIXED_CASES, LABEL_SHAPES, face_stats_reference, tree_ideals


def face_without(face, v):
    """The tuple face dropping its vertex v."""
    return tuple(w for w in face if w != v)


def vertex_matching(faces, v: int):
    """Match each face containing v with the face dropping v, whenever
    both lie in the given family.  Always an acyclic matching."""
    face_set = set(faces)
    return [
        (f, face_without(f, v))
        for f in sorted(face_set)
        if v in f and face_without(f, v) in face_set
    ]


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
    top, level, pivot = face_stats_reference(m2, sigma)
    assert m2.basis.vectors[top] == (1, 0, 1)
    assert level == 2
    assert m2.basis.vectors[pivot] == (1, 1, 0)
    assert m2.pivot(face_mask(sigma)) == pivot


def test_face_stats_family_faces(m2):
    for f in (face(m2, (1, 0, 1)), face(m2, (1, 0, 1), (1, 1, 0))):
        _, level, pivot = face_stats_reference(m2, f)
        assert level is NEG_INF and pivot == UNMATCHED == m2.pivot(face_mask(f))


def test_arrow_examples(m2):
    down = face_mask(face(m2, (1, 0, 1), (2, 0, 0), (0, 2, 0), (1, 1, 0)))
    up = face_mask(face(m2, (1, 0, 1), (2, 0, 0), (0, 2, 0)))
    p = m2.pivot(down)
    assert down >> p & 1 and down ^ 1 << p == up
    p = m2.pivot(up)
    assert not up >> p & 1 and up ^ 1 << p == down
    assert m2.pivot(face_mask(face(m2, (1, 0, 1), (1, 1, 0)))) == UNMATCHED


def test_r1_matching_is_one_arrow(m1):
    classes = m1.classify()
    pairs = classes.pairs()
    assert pairs == [(face(m1, (1, 0, 0), (0, 1, 0), (0, 0, 1)), face(m1, (1, 0, 0), (0, 0, 1)))]
    assert len(classes.critical()) == 5  # three vertices plus the two tree edges


def test_r2_counts(m2):
    classes = m2.classify()
    assert len(list(classes.faces())) == 63
    assert len(classes.critical()) == 13
    assert len(classes.pairs()) == 25
    assert 13 + 2 * 25 == 63


def test_single_generator_all_critical(single):
    matching = TaylorMatching(PowerBasis(single, 3))
    assert matching.classify().pivot == [ABSENT, UNMATCHED]


def test_enumeration_cap(m2):
    with pytest.raises(TooLarge) as info:
        m2.all_faces(cap=1 << 3)
    assert info.value.cap == 1 << 3


def test_matching_property_and_homogeneity(m2):
    pairs = m2.classify().pairs()
    assert is_matching(pairs)
    assert verify_matching_homogeneous(pairs, m2.face_lcm)
    faces = m2.all_faces()
    assert verify_matching_acyclic(faces, pairs)


def test_r1_homogeneity_example(m1):
    (pair,) = m1.classify().pairs()
    assert m1.face_lcm(pair[0]) == m1.face_lcm(pair[1])


def test_critical_closed_form_matches_bruteforce(m1, m2):
    for matching in (m1, m2):
        assert matching.classify().critical() == matching.critical_faces_closed_form()


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
        if f and f[0] == top and face_stats_reference(m2, f)[1] == 2
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
        top, level, pivot = face_stats_reference(m2, f)
        assert pivot == m2.pivot(face_mask(f))
        if level is not NEG_INF:
            groups.setdefault((top, level, pivot), []).append(f)
    rebuilt = []
    for (_, _, pivot), faces in sorted(groups.items()):
        rebuilt.extend(vertex_matching(faces, pivot))
    assert sorted(rebuilt) == sorted(m2.classify().pairs())


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
    pairs = m2.classify().pairs()
    for sub in down_closed_subsets(m2):
        sub_set = set(sub)
        sub_pairs = [p for p in pairs if p[0] in sub_set and p[1] in sub_set]
        assert verify_matching_acyclic(sub, sub_pairs)


def test_partition_monotonicity(m2):
    # within faces sharing a top vertex, subfaces never have a larger
    # level; tops of subfaces are never colex-larger (exhaustive)
    for f in m2.all_faces():
        top, level, pivot = face_stats_reference(m2, f)
        assert pivot == m2.pivot(face_mask(f))
        for k in range(1, len(f) + 1):
            for sub in combinations(f, k):
                top2, level2, _ = face_stats_reference(m2, sub)
                assert top2 >= top  # smaller index = colex-larger
                if top2 == top:
                    lv1 = -1 if level is NEG_INF else level
                    lv2 = -1 if level2 is NEG_INF else level2
                    assert lv2 <= lv1


def test_involution_check_survives_optimize_flag():
    import subprocess
    import sys

    script = """
from morsepow import TaylorMatching, VerificationFailed
from morsepow import PowerBasis, order_generators, parse_generators
from morsepow.matching import UNMATCHED
top_pivots = TaylorMatching._top_pivots
def broken(self, top):
    # every face matched down is made critical
    out = top_pivots(self, top)
    for above, p in enumerate(out):
        if p >= 0 and (above << 1 | 1) << top >> p & 1:
            out[above] = UNMATCHED
    return out
TaylorMatching._top_pivots = broken
gens, variables = parse_generators(["x*y", "y*z", "z*u"])
try:
    TaylorMatching(PowerBasis(order_generators(gens, variables), 2)).classify()
except VerificationFailed as exc:
    print(exc)
    raise SystemExit(0)
raise SystemExit(1)
"""
    from conftest import src_env

    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(0, 1, 2) is not matched back to (0, 2)"


def reference_acyclic(faces, arrows) -> bool:
    """The dict-digraph Kahn that ``verify_matching_acyclic`` replaced,
    kept as its oracle: build the face digraph with matched edges
    reversed and check it has no directed cycle.

    Down edges go from each face to its facets inside the family;
    each matched pair contributes the reversed (upward) edge instead.
    """
    if not is_matching(arrows):
        return False
    face_set = set(faces)
    matched = set(arrows)
    out: dict = {f: [] for f in face_set}
    indeg: dict = {f: 0 for f in face_set}
    for f in face_set:
        for v in f:
            sub = face_without(f, v)
            if sub not in face_set:
                continue
            if (f, sub) in matched:
                src, dst = sub, f
            else:
                src, dst = f, sub
            out[src].append(dst)
            indeg[dst] += 1
    queue = [f for f in face_set if indeg[f] == 0]
    done = 0
    while queue:
        f = queue.pop()
        done += 1
        for g in out[f]:
            indeg[g] -= 1
            if indeg[g] == 0:
                queue.append(g)
    return done == len(face_set)


@st.composite
def paired_families(draw):
    """A family of faces over at most six vertices, the empty face
    allowed, and a list of (face, facet) pairs inside it: mostly
    matchings, cyclic ones among them, and sometimes pairs that share a
    face.  A few stray pairs leave the family or are not a face and one
    of its facets."""
    n = draw(st.integers(1, 6))
    subsets = [f for k in range(n + 1) for f in combinations(range(n), k)]
    if draw(st.booleans()):
        faces = [f for f in subsets if f]
    else:
        faces = draw(st.lists(st.sampled_from(subsets), min_size=1, unique=True))
    face_set = set(faces)
    candidates = [
        (f, face_without(f, v)) for f in faces for v in f if face_without(f, v) in face_set
    ]
    picks = draw(st.permutations(candidates))[: draw(st.integers(0, len(candidates)))]
    arrows, used = [], set()
    disjoint = draw(st.integers(0, 4)) > 0
    for up, down in picks:
        if disjoint and (up in used or down in used):
            continue
        arrows.append((up, down))
        used |= {up, down}
    if draw(st.integers(0, 3)) == 0:
        arrows.append(draw(st.sampled_from([((0, 1), (1,)), ((0, 1), (2,)), ((7,), ())])))
    return faces, arrows


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(paired_families())
def test_mask_kahn_agrees_with_dict_digraph_kahn(case):
    faces, arrows = case
    assert verify_matching_acyclic(faces, arrows) == reference_acyclic(faces, arrows)


def test_mask_kahn_agrees_on_every_pairing_of_the_triangle():
    # every set of (face, facet) pairs on the full triangle, the empty
    # face included: matchings acyclic and cyclic, and non-matchings
    faces = [f for k in range(4) for f in combinations(range(3), k)]
    candidates = [(f, face_without(f, v)) for f in faces for v in f]
    verdicts = set()
    for chosen in range(1 << len(candidates)):
        arrows = [c for i, c in enumerate(candidates) if chosen >> i & 1]
        got = verify_matching_acyclic(faces, arrows)
        assert got == reference_acyclic(faces, arrows)
        verdicts.add((is_matching(arrows), got))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_homogeneity_negative_control(m2):
    # a vertex and an edge holding it have different labels: x*y*z*u
    # against x*y^2*z*u
    pair = (face(m2, (1, 0, 1), (1, 1, 0)), face(m2, (1, 0, 1)))
    assert m2.face_lcm(pair[0]) != m2.face_lcm(pair[1])
    assert not verify_matching_homogeneous([pair], m2.face_lcm)
    assert not verify_matching_homogeneous([pair], m2.face_exponents)
    # the mask form: the same pair as the one matched pair of a family
    classes = m2.classify()
    pivot = [p if p == ABSENT else UNMATCHED for p in classes.pivot]
    up, down = (sum(1 << v for v in f) for f in pair)
    pivot[up] = pivot[down] = (set(pair[0]) - set(pair[1])).pop()
    assert FaceClasses(classes.n, pivot).is_matching()
    assert not m2.homogeneous(FaceClasses(classes.n, pivot))
    assert m2.homogeneous(classes)


def test_classify_counts_and_records_order(m2):
    classes = m2.classify()
    assert classes.n == 6 and len(classes.pivot) == 64
    faces = list(classes.faces())
    assert [f for f, _ in faces] == m2.all_faces()
    assert all(mask == face_mask(f) and classes.pivot[mask] == m2.pivot(mask) for f, mask in faces)
    assert classes.pairs() == [
        (f, face_without(f, p)) for f, mask in faces
        if (p := classes.pivot[mask]) >= 0 and mask >> p & 1
    ]
    assert classes.critical() == m2.critical_faces_closed_form()


@pytest.mark.parametrize("n", range(1, 9))
def test_mask_incidence_is_the_tuple_position_parity(n):
    # every mask whose highest vertex is n - 1, so all masks below 2**8
    for mask in range(1 << n - 1, 1 << n):
        face = tuple(bit_positions(mask))
        for v in face:
            assert incidence(mask, v) == (-1) ** face.index(v)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(tree_ideals(LABEL_SHAPES))
@example(FIXED_CASES[0])
@example(FIXED_CASES[1])
@example(FIXED_CASES[2])
@example(FIXED_CASES[3])
def test_face_stats_matches_its_definition(case):
    og, r = case
    matching = TaylorMatching(PowerBasis(og, r))
    n = matching.basis.size
    faces = matching.all_faces() if n <= 10 else [
        f for k in (1, 2, 3, n - 1, n) for f in combinations(range(n), k)
    ]
    for f in faces:
        top, _, pivot = face_stats_reference(matching, f)
        mask = face_mask(f)
        assert (mask & -mask).bit_length() - 1 == top
        assert matching.pivot(mask) == pivot


def reference_pivot(matching, face) -> int:
    """The tuple classifier that ``TaylorMatching.pivot`` replaced, kept
    as its oracle: the level is read at the face's last vertex outside
    the top vector's descent family, found by membership tests on the
    family's indices."""
    top = face[0]
    last = next(filterfalse(matching.basis.family_indices(top).__contains__, reversed(face)), top)
    if last == top:
        return UNMATCHED
    k = (last - top).bit_length() - 1
    row = matching._step_maxima[k]
    return matching.basis.move_index(top, max(row[top], row[last - (1 << k)]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tree_ideals([(q, r) for q, r in LABEL_SHAPES if comb(q + r - 1, r) <= 12]))
@example(FIXED_CASES[0])
@example(FIXED_CASES[1])
@example(FIXED_CASES[2])
@example(FIXED_CASES[3])
def test_mask_pivot_matches_the_tuple_classifier(case):
    og, r = case
    matching = TaylorMatching(PowerBasis(og, r))
    pivot = matching.classify().pivot
    assert pivot[0] == ABSENT
    for f in range(1, len(pivot)):
        expected = reference_pivot(matching, tuple(bit_positions(f)))
        assert pivot[f] == expected
        assert matching.pivot(f) == expected


def reference_unmatched_back(classes):
    """The per-face scan that ``FaceClasses.unmatched_back`` replaced,
    kept as its oracle: the lowest matched mask whose partner does not
    carry the same pivot."""
    pivot = classes.pivot
    return next((f for f, p in enumerate(pivot) if p >= 0 and pivot[f ^ 1 << p] != p), None)


def reference_homogeneous(matching, classes) -> bool:
    """The label-doubling check that ``TaylorMatching.homogeneous``
    replaced, kept as its oracle: the unary-coded lcm label of every
    mask, each the ``|`` of a smaller mask's label and one vertex's
    code, compared across every matched pair."""
    _, (codes,) = unary_codes([matching.basis.monomials])
    labels = [0]
    for c in codes:
        labels += [x | c for x in labels]
    return all(labels[f] == labels[f ^ 1 << p] for f, p in enumerate(classes.pivot) if p >= 0)


def rematched(pivot, f, v):
    """The pivots with faces f and f ^ 2**v matched to each other and
    their old partners made critical."""
    out = list(pivot)
    for g in (f, f ^ 1 << v):
        if out[g] >= 0:
            out[g ^ 1 << out[g]] = UNMATCHED
    out[f] = out[f ^ 1 << v] = v
    return out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(tree_ideals([(q, r) for q, r in LABEL_SHAPES if comb(q + r - 1, r) <= 12]))
@example(FIXED_CASES[1])
@example(FIXED_CASES[2])
def test_bitset_checks_match_the_per_face_checks(case):
    og, r = case
    matching = TaylorMatching(PowerBasis(og, r))
    classes = matching.classify()
    n, pivot = classes.n, classes.pivot
    assert classes.unmatched_back is reference_unmatched_back(classes) is None
    assert matching.homogeneous(classes) is reference_homogeneous(matching, classes) is True
    # a vertex and an edge holding it never carry the same label
    edge = 0b11 << n - 2
    mixed = FaceClasses(n, rematched(pivot, edge, n - 2))
    # and only the edge matched down, its vertex left as it was
    half = list(pivot)
    half[edge] = n - 2
    corrupted = [mixed, FaceClasses(n, half)]
    for bad in corrupted:
        assert not reference_homogeneous(matching, bad)
    matched = [f for f, p in enumerate(pivot) if p >= 0]
    for f in matched[:: max(1, len(matched) // 5)]:
        p = pivot[f]
        dropped = list(pivot)
        dropped[f ^ 1 << p] = UNMATCHED  # the partner left critical
        wrong = list(pivot)
        wrong[f] = (p + 1) % n  # a pivot no partner answers
        corrupted += [FaceClasses(n, dropped), FaceClasses(n, wrong)]
        assert reference_unmatched_back(corrupted[-1]) is not None
    for bad in corrupted:
        assert bad.unmatched_back == reference_unmatched_back(bad)
        assert bad.is_matching() is (bad.unmatched_back is None)
        assert matching.homogeneous(bad) == reference_homogeneous(matching, bad)


def reference_depth(faces, arrows) -> int:
    """The number of faces on a longest path of the digraph of
    ``reference_acyclic``, for an acyclic matching."""
    face_set, matched = set(faces), set(arrows)
    into: dict = {f: [] for f in face_set}
    for f in face_set:
        for v in f:
            g = face_without(f, v)
            if g in face_set:
                if (f, g) in matched:
                    into[f].append(g)
                else:
                    into[g].append(f)

    @cache
    def longest(f):
        return 1 + max(map(longest, into[f]), default=0)

    return max(map(longest, face_set))


def greedy_acyclic_pivots(n: int, seed: int) -> list[int]:
    """A maximal acyclic matching on the nonempty faces over n vertices:
    the (face, facet) pairs in a seeded random order, each kept when
    both faces are still critical and the matching stays acyclic."""
    pivot = [ABSENT] + [UNMATCHED] * ((1 << n) - 1)
    pairs = [(f, v) for f in range(1, 1 << n) for v in bit_positions(f) if f != 1 << v]
    random.Random(seed).shuffle(pairs)
    for f, v in pairs:
        if pivot[f] == pivot[f ^ 1 << v] == UNMATCHED:
            pivot[f] = pivot[f ^ 1 << v] = v
            if not FaceClasses(n, pivot).acyclic():
                pivot[f] = pivot[f ^ 1 << v] = UNMATCHED
    return pivot


def tuple_family(n: int, pivot):
    """The faces and the (face, facet) pairs of a pivot list."""
    classes = FaceClasses(n, pivot)
    return [f for f, _ in classes.faces()], classes.pairs()


def test_rounds_on_a_deep_matching_and_its_cyclic_mutant():
    # the deepest of three random maximal acyclic matchings on 8 vertices
    # has a path of 85 faces, 68 of them matched: FaceClasses.acyclic
    # runs 68 rounds, where the Taylor matching of a 15-vertex basis
    # needs 38
    n = 8
    pivot = max((greedy_acyclic_pivots(n, seed) for seed in range(3)),
                key=lambda p: reference_depth(*tuple_family(n, p)))
    faces, arrows = tuple_family(n, pivot)
    assert reference_depth(faces, arrows) >= 4 * n
    assert reference_acyclic(faces, arrows)
    assert verify_matching_acyclic(faces, arrows)
    # the matching is maximal, so matching any two critical faces more
    # closes a cycle
    f, v = next(
        (f, v) for f in range(1, 1 << n) for v in bit_positions(f)
        if f != 1 << v and pivot[f] == pivot[f ^ 1 << v] == UNMATCHED
    )
    mutant = arrows + [(tuple(bit_positions(f)), tuple(bit_positions(f ^ 1 << v)))]
    assert not reference_acyclic(faces, mutant)
    assert not verify_matching_acyclic(faces, mutant)
