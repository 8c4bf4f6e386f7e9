import copy
from functools import reduce
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings

from morsepow import (
    CriticalCell,
    GradientPath,
    MorseComplex,
    PowerBasis,
    TaylorMatching,
    VerificationFailed,
    build_resolution,
    colex_key,
    format_monomial,
    last_disagreement,
    lcm,
    move_many,
    move_to_joint,
    support,
    weak_compositions,
)
from morsepow.matching import UNMATCHED, face_mask
from morsepow.monomials import bit_positions
from conftest import FIXED_CASES, LABEL_SHAPES, tree_ideals


@pytest.fixture(scope="module")
def morse2(running):
    return MorseComplex(TaylorMatching(PowerBasis(running, 2)))


@pytest.fixture(scope="module")
def morse1(running):
    return MorseComplex(TaylorMatching(PowerBasis(running, 1)))


@pytest.fixture(scope="module")
def morse_path4(path4):
    return MorseComplex(TaylorMatching(PowerBasis(path4, 2)))


@pytest.fixture(scope="module")
def complex_path4(path4):
    return build_resolution(None, 2, og=path4)


def fvector(morse):
    return tuple(len(g) for g in morse.critical_cells())


def closed_form_fvector(q, r):
    counts = {}
    for a in weak_compositions(r, q):
        s = len(support(a) - {0})
        for i in range(s + 1):
            counts[i] = counts.get(i, 0) + comb(s, i)
    return tuple(counts[i] for i in range(max(counts) + 1))


def test_critical_counts(morse1, morse2, morse_path4):
    assert fvector(morse2) == (6, 6, 1) == closed_form_fvector(3, 2)
    assert fvector(morse1) == (3, 2)
    assert fvector(morse_path4) == (10, 12, 3) == closed_form_fvector(4, 2)


def test_critical_cells_equal_bruteforce(morse1, morse2, morse_path4):
    for morse in (morse1, morse2, morse_path4):
        as_faces = {
            morse.cell_face(c) for cells in morse.critical_cells() for c in cells
        }
        assert as_faces == morse.matching.classify().critical()
        assert len(as_faces) == sum(fvector(morse))  # one face per cell


def test_cell_face_roundtrip(morse2, morse_path4):
    # read the cell back off its face: the first vertex is a, and each
    # further vertex is the move of a at its last disagreement with a
    for morse in (morse2, morse_path4):
        vectors = morse.basis.vectors
        joints = morse.basis.og.joints
        for cells in morse.critical_cells():
            for c in cells:
                face = morse.cell_face(c)
                a = vectors[face[0]]
                moves = []
                for v in face[1:]:
                    j = last_disagreement(a, vectors[v])
                    assert move_to_joint(a, j, joints) == vectors[v]
                    moves.append(j)
                assert CriticalCell(a, tuple(sorted(moves))) == c


def test_cell_lcm_example(morse2, running):
    # label of the edge on (1,0,1) with the move at slot 2: the free
    # vertex of the third facet over its joint is y, giving x*y^2*z*u;
    # the direct lcm of {xyzu, xy^2z} agrees
    cell = CriticalCell((1, 0, 1), (2,))
    label = morse2.cell_lcm(cell)
    assert format_monomial(label, running.variables) == "x*y^2*z*u"
    assert label == morse2.matching.face_lcm(morse2.cell_face(cell))


def test_cell_lcm_base_case(morse2, running):
    cell = CriticalCell((1, 0, 1), ())
    assert morse2.cell_lcm(cell) == running.power_monomial((1, 0, 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tree_ideals(LABEL_SHAPES))
@example(FIXED_CASES[0])
@example(FIXED_CASES[1])
@example(FIXED_CASES[2])
@example(FIXED_CASES[3])
def test_cell_lcm_matches_face_lcm_everywhere(case):
    # the closed-form label against the lcm of the face's generators,
    # taken from the dense exponents and from sparse products
    og, r = case
    morse = MorseComplex(TaylorMatching(PowerBasis(og, r)))
    vectors = morse.basis.vectors
    for cells in morse.critical_cells():
        for c in cells:
            face = morse.cell_face(c)
            label = morse.cell_lcm(c)
            assert label == morse.matching.face_lcm(face)
            assert label == reduce(lcm, (og.power_monomial(vectors[v]) for v in face))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tree_ideals(LABEL_SHAPES))
@example(FIXED_CASES[0])
@example(FIXED_CASES[1])
@example(FIXED_CASES[2])
@example(FIXED_CASES[3])
def test_flow_differential_equals_built_columns(case):
    # the gradient-flow path sum against the closed-form cube boundary
    # that the build emits: same cells, coefficients and shifts per column
    og, r = case
    complex = build_resolution(None, r, og=og)
    morse = MorseComplex(TaylorMatching(PowerBasis(og, r)))
    for i in range(1, len(complex.basis)):
        columns = {}
        for (row, col), entry in complex.maps[i].items():
            columns.setdefault(col, {})[complex.basis[i - 1][row]] = entry
        for col, cell in enumerate(complex.basis[i]):
            flow = {sub: (c, shift) for sub, c, shift in morse.differential(cell)}
            assert flow == columns[col]


def test_differential_rejects_flow_end_outside_closure(running, monkeypatch):
    morse = MorseComplex(TaylorMatching(PowerBasis(running, 2)))
    cell = CriticalCell((0, 1, 1), (1, 2))
    assert len(morse.differential(cell)) == 4
    # a vertex is critical but never attached to a 2-cell
    stray = morse.cell_mask(CriticalCell((2, 0, 0), ()))
    monkeypatch.setattr(MorseComplex, "_flow", lambda self, start: {stray: 1})
    with pytest.raises(VerificationFailed, match="outside its attached cells"):
        morse.differential(cell)


def test_closure_facets_of_two_cell(morse2):
    cell = CriticalCell((0, 1, 1), (1, 2))
    subs = morse2.closure_facets(cell)
    assert set(subs) == {
        CriticalCell((0, 1, 1), (2,)),
        CriticalCell((0, 1, 1), (1,)),
        CriticalCell((1, 0, 1), (2,)),  # move at slot 1
        CriticalCell((0, 2, 0), (1,)),  # move at slot 2
    }


def test_closure_facets_of_edge(morse2):
    assert set(morse2.closure_facets(CriticalCell((1, 1, 0), (1,)))) == {
        CriticalCell((1, 1, 0), ()),
        CriticalCell((2, 0, 0), ()),
    }
    assert morse2.closure_facets(CriticalCell((2, 0, 0), ())) == []


def test_explicit_path_worked_example(morse2):
    basis = morse2.basis
    path = morse2.explicit_path((0, 1, 1), (1, 2), 1)
    named = [
        tuple(basis.vectors[v] for v in f) for f in path.faces
    ]
    assert named == [
        ((1, 0, 1), (0, 2, 0)),
        ((1, 0, 1), (0, 2, 0), (1, 1, 0)),
        ((1, 0, 1), (1, 1, 0)),
    ]
    assert morse2.is_valid_path(path)


def test_explicit_path_both_choices_validate(morse2, morse_path4):
    for morse in (morse2, morse_path4):
        for cells in morse.critical_cells()[2:]:
            for cell in cells:
                for k in cell.moves:
                    path = morse.explicit_path(cell.a, cell.moves, k)
                    assert morse.is_valid_path(path)
                    end = CriticalCell(
                        move_to_joint(cell.a, k, morse.basis.og.joints),
                        tuple(j for j in cell.moves if j != k),
                    )
                    assert path.faces[-1] == morse.cell_face(end)


def test_explicit_path_matches_min_and_max_choice(path4):
    # a three-move cell exists for the path ideal at r = 3
    morse = MorseComplex(TaylorMatching(PowerBasis(path4, 3)))
    cell = CriticalCell((0, 1, 1, 1), (1, 2, 3))
    assert cell in morse.critical_cells()[3]
    for k in (1, 2, 3):
        path = morse.explicit_path(cell.a, cell.moves, k)
        assert morse.is_valid_path(path)
        bf = morse.paths_bruteforce(
            tuple(
                sorted(
                    morse.basis.move_index(morse.basis.index_of[cell.a], j)
                    for j in cell.moves
                )
            ),
            path.faces[-1],
        )
        assert path.faces in {p.faces for p in bf}


def test_is_valid_path_rejects_broken_walks(morse2):
    pivot = morse2.matching.pivot
    path = morse2.explicit_path((0, 1, 1), (1, 2), 1)
    low, high, end = path.masks
    assert morse2.is_valid_path(path)
    # a down step that drops the pivot again, then the valid steps
    assert not morse2.is_valid_path(GradientPath((low, high, low, high, end)))
    # an "up step" from a face matched down, then down to a critical facet
    down, w = next(
        (f, w)
        for f in range(1, 1 << morse2.basis.size)
        if (p := pivot(f)) >= 0 and f >> p & 1
        for w in bit_positions(f)
        if w != p and pivot(f ^ 1 << w) == UNMATCHED
    )
    assert not morse2.is_valid_path(GradientPath((down, down, down ^ 1 << w)))


def test_paths_from_critical_start_are_empty(morse2):
    start = morse2.cell_face(CriticalCell((1, 0, 1), (2,)))
    anywhere = morse2.cell_face(CriticalCell((1, 1, 0), (1,)))
    assert morse2.paths_bruteforce(start, anywhere) == []


def test_paths_reach_exactly_the_attached_cells(morse2, morse_path4):
    for morse in (morse2, morse_path4):
        cells = morse.critical_cells()
        for dim in range(2, len(cells)):
            lower_faces = {morse.cell_face(c) for c in cells[dim - 1]}
            for cell in cells[dim]:
                start = tuple(
                    sorted(
                        morse.basis.move_index(morse.basis.index_of[cell.a], j)
                        for j in cell.moves
                    )
                )
                expected = {
                    morse.cell_face(sub)
                    for sub in morse.closure_facets(cell)
                    if sub.a != cell.a
                }
                for target in lower_faces:
                    paths = morse.paths_bruteforce(start, target)
                    assert bool(paths) == (target in expected)
                    for p in paths:
                        assert morse.is_valid_path(p)
                        # the top vertex never grows along a path
                        tops = [f[0] for f in p.faces]
                        assert tops == sorted(tops)


def test_differential_of_edge(morse1, running):
    # the tree edge {xy, yz}: boundary hits both endpoints with opposite
    # signs and shifts z and x
    cell = CriticalCell((0, 1, 0), (1,))
    out = morse1.differential(cell)
    named = {
        format_monomial(morse1.basis.og.power_monomial(c.a), running.variables): (
            coeff,
            format_monomial(shift, running.variables),
        )
        for c, coeff, shift in out
    }
    assert named == {"x*y": (1, "z"), "y*z": (-1, "x")}


def test_differential_signs_sum_to_zero(morse2):
    # boundary of the boundary of the single 2-cell vanishes with shifts
    cell = CriticalCell((0, 1, 1), (1, 2))
    total = {}
    for sub, c1, shift1 in morse2.differential(cell):
        for subsub, c2, shift2 in morse2.differential(sub):
            from morsepow import mul

            key = (subsub, mul(shift1, shift2))
            total[key] = total.get(key, 0) + c1 * c2
    assert all(v == 0 for v in total.values())


def test_differential_coefficients_are_units(morse2, morse_path4):
    for morse in (morse2, morse_path4):
        for cells in morse.critical_cells()[1:]:
            for cell in cells:
                for _, coeff, shift in morse.differential(cell):
                    assert coeff in (1, -1)
                    assert not shift.is_one()


def test_differential_agrees_with_path_weights(morse2, morse_path4):
    # recompute each coefficient by enumerating gradient paths and
    # multiplying step signs; compare with the memoized flow
    from morsepow.matching import incidence

    for morse in (morse2, morse_path4):
        cells = morse.critical_cells()
        for dim in range(2, len(cells)):
            for cell in cells[dim]:
                face = morse.cell_face(cell)
                mask = morse.cell_mask(cell)
                top = morse.basis.index_of[cell.a]
                start = tuple(v for v in face if v != top)
                expected = {}
                for sub, coeff, _ in morse.differential(cell):
                    expected[morse.cell_face(sub)] = coeff
                direct = {
                    f: expected.get(f, 0)
                    for f in {morse.cell_face(c) for c in cells[dim - 1]}
                }
                recomputed = dict.fromkeys(direct, 0)
                sign_start = incidence(mask, top)
                for target in direct:
                    for p in morse.paths_bruteforce(start, target):
                        recomputed[target] += sign_start * morse.path_weight(p)
                for k in cell.moves:
                    drop = morse.basis.move_index(top, k)
                    f = tuple(v for v in face if v != drop)
                    recomputed[f] += incidence(mask, drop)
                assert recomputed == direct


def sigma_bar(morse, a, slots):
    joints = morse.basis.og.joints
    out = set()
    for k in range(len(slots) + 1):
        for L in combinations(slots, k):
            out.add(move_many(a, L, joints))
    return out


@pytest.mark.parametrize("r", [1, 2, 3])
def test_colex_order_inside_move_closures(running, path4, star3, r):
    # for two members of a move-closure, the colex-smaller of the two is
    # the one whose move set contains the largest slot where the move
    # sets disagree, and the disagreement index equals that slot
    for og in (running, path4, star3):
        joints = og.joints
        for a in weak_compositions(r, og.q):
            slots = sorted(support(a) - {0})
            for size in range(len(slots) + 1):
                for D in combinations(slots, size):
                    family = {}
                    for t in range(len(D) + 1):
                        for L in combinations(D, t):
                            family[frozenset(L)] = move_many(a, L, joints)
                    for L1, b in family.items():
                        for L2, c in family.items():
                            if L1 == L2:
                                continue
                            assert b != c  # moves are injective on subsets
                            k = max(L1 ^ L2)
                            if k in L2:
                                assert colex_key(c) < colex_key(b)
                                assert last_disagreement(b, c) == k
                                # the move of b at k stays in the closure
                                assert (
                                    move_to_joint(b, k, joints)
                                    == family[frozenset(L1 | {k})]
                                )
                            else:
                                assert colex_key(b) < colex_key(c)


def test_critical_faces_inside_move_closure(morse2, morse_path4):
    # a critical face of one lower dimension inside the move-closure of
    # (a, D) either contains a or is the cell of (move k of a, D minus k)
    for morse in (morse2, morse_path4):
        basis = morse.basis
        joints = basis.og.joints
        for cells in morse.critical_cells()[1:]:
            for cell in cells:
                verts = sorted(
                    basis.index_of[v] for v in sigma_bar(morse, cell.a, cell.moves)
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
                for sub in combinations(verts, len(cell.moves)):
                    if top in sub:
                        continue
                    if morse.matching.pivot(face_mask(sub)) == UNMATCHED:
                        assert sub in allowed


@pytest.mark.parametrize("name", ["running", "path4"])
@pytest.mark.parametrize("r", [2, 3])
def test_gradient_path_oracle_passes(request, name, r):
    og = request.getfixturevalue(name)
    morse = MorseComplex(TaylorMatching(PowerBasis(og, r)))
    assert morse.paths_match_closure(build_resolution(None, r, og=og), cap=1 << 20)


def test_gradient_path_oracle_detects_wrong_explicit_end(
    morse_path4, complex_path4, monkeypatch
):
    explicit = MorseComplex.explicit_path

    def wrong_end(self, a, moves, k):
        # the explicit path to the cell of another move
        other = next(j for j in moves if j != k)
        return explicit(self, a, moves, other)

    monkeypatch.setattr(MorseComplex, "explicit_path", wrong_end)
    assert not morse_path4.paths_match_closure(complex_path4, cap=1 << 20)


def test_gradient_path_oracle_detects_wrong_closure(
    morse_path4, complex_path4, monkeypatch
):
    closure = MorseComplex.closure_facets

    def same_top_only(self, cell):
        return [sub for sub in closure(self, cell) if sub.a == cell.a]

    monkeypatch.setattr(MorseComplex, "closure_facets", same_top_only)
    assert not morse_path4.paths_match_closure(complex_path4, cap=1 << 20)


@pytest.mark.parametrize("name", ["running", "path4"])
@pytest.mark.parametrize("degree", [1, 2])
def test_gradient_path_oracle_checks_built_signs(request, name, degree):
    og = request.getfixturevalue(name)
    morse = MorseComplex(TaylorMatching(PowerBasis(og, 2)))
    complex = build_resolution(None, 2, og=og)
    assert morse.paths_match_closure(complex, 1 << 20)
    # flip one sign of the built differential
    broken = copy.deepcopy(complex)
    (key, (coeff, shift)), *_ = sorted(broken.maps[degree].items())
    broken.maps[degree][key] = (-coeff, shift)
    assert not morse.paths_match_closure(broken, 1 << 20)


def test_gradient_path_oracle_respects_cap(morse_path4, complex_path4):
    from morsepow import TooLarge

    with pytest.raises(TooLarge):
        morse_path4.paths_match_closure(complex_path4, cap=1)


def test_paths_bruteforce_filters_the_one_search(morse_path4):
    cells = morse_path4.critical_cells()
    cell = cells[2][0]
    start = morse_path4.cell_mask(cell) ^ 1 << morse_path4.basis.index_of[cell.a]
    ends = morse_path4.gradient_paths(start, cap=1 << 20)
    assert ends
    for end, paths in ends.items():
        assert morse_path4.paths_bruteforce(
            tuple(bit_positions(start)), tuple(bit_positions(end))
        ) == sorted(paths, key=lambda p: p.faces)


def test_facet_matched_down_raises(running, monkeypatch):
    # the build no longer reads the matching; the path-sum oracle does
    from morsepow import VerificationFailed

    pivot = TaylorMatching.pivot

    def broken(self, mask):
        # an edge matched up is reported matched down at its higher vertex
        p = pivot(self, mask)
        if p >= 0 and not mask >> p & 1 and mask.bit_count() == 2:
            return mask.bit_length() - 1
        return p

    monkeypatch.setattr(TaylorMatching, "pivot", broken)
    morse = MorseComplex(TaylorMatching(PowerBasis(running, 2)))
    with pytest.raises(VerificationFailed, match="matched down"):
        morse.differential(CriticalCell((0, 1, 1), (1, 2)))
