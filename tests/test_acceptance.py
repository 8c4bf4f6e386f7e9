"""Acceptance suite: one test per numbered criterion, each printing a
PASS line (run with -s to see them) and enforcing its time bound."""

import time
import warnings
from itertools import combinations
from math import comb

from morsepow import (
    NEG_INF,
    CriticalCell,
    MorseComplex,
    PowerBasis,
    TaylorMatching,
    betti,
    betti_closed_form,
    build_resolution,
    colex_key,
    divides,
    dstab,
    format_monomial,
    is_matching,
    last_disagreement,
    lcm,
    move_many,
    move_to_joint,
    order_generators,
    parse_generators,
    pd_computed,
    pd_formula,
    pd_sequence,
    power_vectors,
    support,
    verify_d2,
    verify_matching_acyclic,
    verify_matching_homogeneous,
    verify_minimality,
    verify_strand_acyclicity,
    weak_compositions,
)
from morsepow.matching import UNMATCHED, face_mask
from conftest import face_stats_reference, ideal, path_complement_ideal


def timed(bound_seconds):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < bound_seconds, f"{label} took {elapsed:.2f}s"
        return elapsed

    return check


def quiet_order(gens, variables, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return order_generators(gens, variables, **kw)


def path_og(q):
    if q == 1:
        gens, variables = ideal(["a*b"])
    else:
        gens, variables = path_complement_ideal(q)
    return quiet_order(gens, variables)


def test_criterion_1_running_example_end_to_end():
    check = timed(1.0)
    gens, variables = parse_generators(["x*y", "y*z", "z*u"])
    complex = build_resolution(gens, 2, variables)
    assert complex.ranks() == (6, 6, 1)
    assert betti(complex).totals == (6, 6, 1)
    assert pd_computed(complex) == 2
    elapsed = check("criterion 1")
    print(f"\nACCEPTANCE 1 (running example end-to-end): PASS [{elapsed:.3f}s]")


def test_criterion_2_power_one_recovers_tree(running):
    check = timed(1.0)
    complex = build_resolution(None, 1, og=running)
    assert complex.ranks() == (3, 2)
    labels = {format_monomial(m, running.variables) for m in complex.labels[1]}
    assert labels == {"x*y*z", "y*z*u"}
    shifts = {
        format_monomial(s, running.variables) for _, s in complex.maps[1].values()
    }
    assert shifts == {"x", "y", "z", "u"}
    assert verify_minimality(complex)
    assert verify_strand_acyclicity(complex, 0)
    assert verify_strand_acyclicity(complex, 2)
    elapsed = check("criterion 2")
    print(f"ACCEPTANCE 2 (power one recovers the tree): PASS [{elapsed:.3f}s]")


def test_criterion_3_bruteforce_matching_verification(running, path4, star3, pair2):
    cap = 1 << 17
    instances = [
        ("running r=1", running, 1),
        ("running r=2", running, 2),
        ("running r=3", running, 3),
        ("star q=3 r=2", star3, 2),
        ("path q=4 r=1", path4, 1),
        ("path q=4 r=2", path4, 2),
        ("pair q=2 r=3", pair2, 3),
        ("pair q=2 r=15", pair2, 15),
        ("path q=5 r=2", path_og(5), 2),
    ]
    for label, og, r in instances:
        check = timed(30.0)
        matching = TaylorMatching(PowerBasis(og, r))
        assert matching.basis.size <= 16
        faces = matching.all_faces(cap)
        classes = matching.classify(cap)
        pairs = classes.pairs()
        assert is_matching(pairs)
        assert verify_matching_acyclic(faces, pairs)
        assert verify_matching_homogeneous(pairs, matching.face_lcm)
        assert classes.critical() == matching.critical_faces_closed_form()
        check(f"criterion 3 [{label}]")
    print(f"ACCEPTANCE 3 (brute-force matching, {len(instances)} instances): PASS")


def test_criterion_4_gradient_path_oracle(running, path4):
    check = timed(60.0)
    for og in (running, path4):
        morse = MorseComplex(TaylorMatching(PowerBasis(og, 2)))
        cells = morse.critical_cells()
        for dim in range(1, len(cells)):
            lower_faces = {morse.cell_face(c) for c in cells[dim - 1]}
            for cell in cells[dim]:
                face = morse.cell_face(cell)
                closure = morse.closure_facets(cell)
                same_top = [s for s in closure if s.a == cell.a]
                moved = [s for s in closure if s.a != cell.a]
                # cells keeping the top vector are literal subfaces
                for sub in same_top:
                    assert set(morse.cell_face(sub)) <= set(face)
                if dim == 1:
                    for sub in moved:
                        assert set(morse.cell_face(sub)) <= set(face)
                    continue
                start = morse.cell_mask(cell) ^ 1 << morse.basis.index_of[cell.a]
                ends = morse.gradient_paths(start, 1 << 20)
                expected = {morse.cell_face(s) for s in moved}
                for target in lower_faces:
                    paths = ends.get(face_mask(target), [])
                    assert bool(paths) == (target in expected)
                # the explicit path is among the enumerated ones
                for k in cell.moves:
                    end = CriticalCell(
                        move_to_joint(cell.a, k, og.joints),
                        tuple(j for j in cell.moves if j != k),
                    )
                    explicit = morse.explicit_path(cell.a, cell.moves, k)
                    found = ends.get(morse.cell_mask(end), [])
                    assert explicit.masks in {p.masks for p in found}
    elapsed = check("criterion 4")
    print(f"ACCEPTANCE 4 (gradient-path oracle): PASS [{elapsed:.3f}s]")


def test_criterion_5_resolution_validity(star3):
    check = timed(120.0)
    builds = [(path_og(q), r) for q in (1, 2, 3, 4) for r in (1, 2, 3)]
    builds += [(star3, r) for r in (1, 2, 3)]
    for og, r in builds:
        complex = build_resolution(None, r, og=og)
        assert verify_d2(complex)
        assert verify_strand_acyclicity(complex, 0)
        assert verify_strand_acyclicity(complex, 2)
    elapsed = check("criterion 5")
    print(
        f"ACCEPTANCE 5 (d2 and strand acyclicity, {len(builds)} builds): "
        f"PASS [{elapsed:.3f}s]"
    )


def test_criterion_6_minimality_and_negative_control(running):
    import copy

    from morsepow import ONE

    complex = build_resolution(None, 2, og=running)
    assert verify_minimality(complex)
    for entries in complex.maps.values():
        assert all(not s.is_one() for _, s in entries.values())
    broken = copy.deepcopy(complex)
    key = sorted(broken.maps[1])[0]
    broken.maps[1][key] = (broken.maps[1][key][0], ONE)
    assert not verify_minimality(broken)
    print("ACCEPTANCE 6 (minimality with negative control): PASS")


def test_criterion_7_pd_and_dstab_formulas():
    for q in range(1, 6):
        og = path_og(q)
        assert og.q == q
        pds = []
        for r in range(1, 7):
            complex = build_resolution(None, r, og=og)
            computed = pd_computed(complex)
            assert computed == pd_formula(q, r) == min(r, q - 1)
            pds.append(computed)
        assert dstab(q) == max(q - 1, 0)
        assert tuple(pds[:q]) == pd_sequence(q)
        # the sequence stabilizes exactly at q-1: constant from there on,
        # strictly increasing just before
        stable = max(dstab(q), 1)
        assert all(value == pds[stable - 1] for value in pds[stable - 1 :])
        assert all(a < b for a, b in zip(pds[: stable - 1], pds[1:stable]))
    print("ACCEPTANCE 7 (pd and dstab formulas, q=1..5, r=1..6): PASS")


def test_criterion_8_closed_form_betti():
    instances = [(q, r) for q in range(1, 6) for r in range(1, 7)]
    for q, r in instances:
        og = path_og(q)
        totals = betti(build_resolution(None, r, og=og)).totals
        assert totals == betti_closed_form(q, r)
        expected = tuple(
            sum(comb(len(support(a) - {0}), i) for a in weak_compositions(r, q))
            for i in range(len(totals))
        )
        assert totals == expected
        assert sum((-1) ** i * b for i, b in enumerate(totals)) == 1
    print(f"ACCEPTANCE 8 (closed-form Betti, {len(instances)} instances): PASS")


def _lemma_suite(og, r):
    """Exhaustive vector-level lemma checks for one structure and power."""
    joints = og.joints
    vectors = power_vectors(og.q, r)
    # moves descend in colex order with the expected disagreement indices
    for a in vectors:
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
    # lcm absorption at the disagreement index, over all ordered pairs
    for ai, a in enumerate(vectors):
        for b in vectors[ai + 1 :]:
            k = last_disagreement(a, b)
            moved = og.power_monomial(move_to_joint(a, k, joints))
            assert divides(moved, lcm(og.power_monomial(a), og.power_monomial(b)))
    # order inside move-closures and uniqueness of move subsets
    for a in vectors:
        slots = sorted(support(a) - {0})
        for size in range(len(slots) + 1):
            for D in combinations(slots, size):
                family = {}
                for t in range(len(D) + 1):
                    for L in combinations(D, t):
                        family[frozenset(L)] = move_many(a, L, joints)
                assert len(set(family.values())) == len(family)
                for L1, b in family.items():
                    for L2, c in family.items():
                        if L1 == L2:
                            continue
                        k = max(L1 ^ L2)
                        if k in L2:
                            assert colex_key(c) < colex_key(b)
                            assert last_disagreement(b, c) == k
                            assert (
                                move_to_joint(b, k, joints)
                                == family[frozenset(L1 | {k})]
                            )


def _critical_faces_in_closures(og, r):
    """Critical faces of codimension one inside a cell's move-closure
    avoid the top vector only by being one of the moved cells."""
    morse = MorseComplex(TaylorMatching(PowerBasis(og, r)))
    basis = morse.basis
    joints = og.joints
    for cells in morse.critical_cells()[1:]:
        for cell in cells:
            closure_vertices = sorted(
                basis.index_of[move_many(cell.a, L, joints)]
                for t in range(len(cell.moves) + 1)
                for L in combinations(cell.moves, t)
            )
            top = basis.index_of[cell.a]
            allowed = {
                morse.cell_face(
                    CriticalCell(
                        move_to_joint(cell.a, k, joints),
                        tuple(j for j in cell.moves if j != k),
                    )
                )
                for k in cell.moves
            }
            for sub in combinations(closure_vertices, len(cell.moves)):
                if top in sub:
                    continue
                if morse.matching.pivot(face_mask(sub)) == UNMATCHED:
                    assert sub in allowed


def _monotone_below(matching, f):
    """No subface of f has a colex-larger top vertex, and one with the
    same top has no larger level (both read off their definition); the
    pivot of f agrees with ``TaylorMatching.pivot``."""
    top, level, pivot = face_stats_reference(matching, f)
    assert matching.pivot(face_mask(f)) == pivot
    for k in range(1, len(f) + 1):
        for sub in combinations(f, k):
            top2, level2, _ = face_stats_reference(matching, sub)
            assert top2 >= top
            if top2 == top:
                lv1 = -1 if level is NEG_INF else level
                lv2 = -1 if level2 is NEG_INF else level2
                assert lv2 <= lv1


def _partition_monotonicity(og, r):
    matching = TaylorMatching(PowerBasis(og, r))
    for f in matching.all_faces():
        _monotone_below(matching, f)


def test_criterion_9_lemma_suites(running, star3):
    structures = [path_og(q) for q in (2, 3, 4)] + [running, star3]
    for og in structures:
        for r in (1, 2, 3):
            _lemma_suite(og, r)
            _critical_faces_in_closures(og, r)
    # partition monotonicity needs the full face poset: run it wherever
    # the poset has at most 2**10 faces, and on the 3-skeleton beyond
    for og in structures:
        for r in (1, 2, 3):
            basis = PowerBasis(og, r)
            if basis.size <= 10:
                _partition_monotonicity(og, r)
            else:
                matching = TaylorMatching(basis)
                for k in (1, 2, 3):
                    for f in combinations(range(basis.size), k):
                        _monotone_below(matching, f)
    print("ACCEPTANCE 9 (exhaustive lemma suites, q<=4, r<=3): PASS")
