"""The homogeneous acyclic matching on the faces of the Taylor complex.

Faces are strictly increasing tuples of vertex indices into a
PowerBasis, or int masks (bit v = vertex v).  The matching is a pure
local classifier, ``TaylorMatching.pivot``: every nonempty face is
critical, matched downward (its pivot vertex is removed) or matched
upward (its pivot vertex is added), and no global enumeration is needed
to classify one face.  The brute-force enumerators and verifiers in this
module exist to check the matching's claimed properties at desk scale.
They hold each per-face fact in a list indexed by mask.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .errors import EmptyFace, TooLarge, VerificationFailed
from .monomials import Monomial, bit_positions, format_monomial, unary_codes
from .powers import NEG_INF, PowerBasis, last_disagreement

Face = tuple[int, ...]

CRITICAL = "critical"
UP = "up"
DOWN = "down"

# pivot entries of a face mask that is critical, or outside the family
UNMATCHED = -1
ABSENT = -2

DEFAULT_CAP = 1 << 20


@dataclass(frozen=True)
class FaceStats:
    """Local invariants of a face: ``top`` is the index of its
    colex-largest vertex; ``level`` is the largest disagreement between
    the top vector and a vertex outside its descent family (NEG_INF when
    every vertex is in the family); ``pivot`` is the index of the top
    vector's move at the level."""

    top: int
    level: float
    pivot: int | None


@dataclass(frozen=True)
class MatchArrow:
    kind: str
    partner: Face | None
    pivot: int | None


_CRITICAL_ARROW = MatchArrow(CRITICAL, None, None)


def face_without(face: Face, v: int) -> Face:
    """The face dropping its vertex v."""
    i = face.index(v)
    return face[:i] + face[i + 1 :]


def face_with(face: Face, v: int) -> Face:
    i = bisect_left(face, v)
    return face[:i] + (v,) + face[i:]


def incidence(face: Face, v: int) -> int:
    """Sign of dropping vertex v from the face: (-1) ** position."""
    return -1 if face.index(v) % 2 else 1


def _toggled(face: Face, v: int) -> Face:
    return face_without(face, v) if v in face else face_with(face, v)


def _arrow(face: Face, pivot: int) -> MatchArrow:
    """The arrow a pivot determines: none for UNMATCHED, otherwise to
    the face that toggles the pivot vertex."""
    if pivot < 0:
        return _CRITICAL_ARROW
    return MatchArrow(DOWN if pivot in face else UP, _toggled(face, pivot), pivot)


def _mask(face: Face) -> int:
    return sum(1 << v for v in face)


def _check_cap(n: int, cap: int) -> None:
    if 1 << n > cap:
        raise TooLarge(f"2**{n} faces exceed the cap of {cap}", cap=cap)


class TaylorMatching:
    """The matching attached to one PowerBasis."""

    def __init__(self, basis: PowerBasis):
        self.basis = basis
        self._family_masks: dict[int, int] = {}

    def face_exponents(self, face: Face) -> tuple[int, ...]:
        """Dense exponent tuple of the face's lcm label: the exponentwise
        maximum over its vertices' generators."""
        if not face:
            raise EmptyFace("the empty face has no lcm label")
        exponents = self.basis.exponents
        if len(face) == 1:
            return exponents[face[0]]
        return tuple(map(max, *(exponents[v] for v in face)))

    def face_lcm(self, face: Face) -> Monomial:
        return Monomial.from_exponents(self.face_exponents(face))

    @cached_property
    def _step_maxima(self) -> list[list[int]]:
        """A sparse table of the last disagreement of each vector with
        the next one: row k holds the largest of the 2**k steps from each
        vector.  The vectors are in colex order, so the last disagreement
        of vectors i < v is the largest step from i to v."""
        vectors = self.basis.vectors
        rows = [[last_disagreement(a, b) for a, b in zip(vectors, vectors[1:])]]
        for k in range(len(rows[0]).bit_length() - 1):
            rows.append(list(map(max, rows[k], rows[k][1 << k :])))
        return rows

    def _family_mask(self, top: int) -> int:
        """The descent family of vector ``top`` as a vertex mask, made on
        first use."""
        fam = self._family_masks.get(top)
        if fam is None:
            fam = self._family_masks[top] = sum(1 << v for v in self.basis.family_indices(top))
        return fam

    def _level(self, mask: int) -> tuple[int, float]:
        """The top vertex of a nonempty face mask, its lowest set bit,
        and its level.  The last disagreement with the top vector never
        falls as the vertex index grows, so the level is that of the
        face's last vertex outside the top vector's descent family."""
        if not mask:
            raise EmptyFace("the empty face is not classified")
        top = (mask & -mask).bit_length() - 1
        outside = mask & ~self._family_mask(top)
        if not outside:
            return top, NEG_INF
        last = outside.bit_length() - 1
        k = (last - top).bit_length() - 1
        row = self._step_maxima[k]
        return top, max(row[top], row[last - (1 << k)])

    def pivot(self, mask: int) -> int:
        """Classify one nonempty face mask: UNMATCHED when the face sits
        inside the descent family of its top vertex, otherwise the
        vertex whose toggle gives its partner, the top vector's move at
        the face's level.  The one classifier of the matching."""
        top, level = self._level(mask)
        if level is NEG_INF:
            return UNMATCHED
        return self.basis.move_index(top, level)

    def face_stats(self, face: Face) -> FaceStats:
        top, level = self._level(_mask(face))
        return FaceStats(top, level, None if level is NEG_INF else self.basis.move_index(top, level))

    def arrow(self, face: Face) -> MatchArrow:
        """The arrow of one face, from its ``pivot``."""
        return _arrow(face, self.pivot(_mask(face)))

    # ------------------------------------------------------------------
    # brute-force enumeration and verification

    def all_faces(self, cap: int = DEFAULT_CAP) -> list[Face]:
        n = self.basis.size
        _check_cap(n, cap)
        out: list[Face] = []
        for k in range(1, n + 1):
            out.extend(combinations(range(n), k))
        return out

    def classify(self, cap: int = DEFAULT_CAP) -> FaceClasses:
        """The ``pivot`` of every nonempty face, in one pass over the
        masks.  The pivots must be an involution: the partner of a
        matched face is matched back to it with the same pivot.  Else
        VerificationFailed is raised."""
        n = self.basis.size
        _check_cap(n, cap)
        classes = FaceClasses(n, [ABSENT, *map(self.pivot, range(1, 1 << n))])
        f = classes.unmatched_back()
        if f is not None:
            partner = f ^ 1 << classes.pivot[f]
            raise VerificationFailed(
                f"{tuple(bit_positions(partner))} is not matched back to {tuple(bit_positions(f))}"
            )
        return classes

    def enumerate_arrows(self, cap: int = DEFAULT_CAP) -> list[tuple[Face, MatchArrow]]:
        """Every nonempty face with its arrow, by size and then
        lexicographically: ``classify`` as a list of (face, arrow)."""
        return list(self.classify(cap).arrows())

    def matched_pairs(self, cap: int = DEFAULT_CAP) -> list[tuple[Face, Face]]:
        """The matching as (face, face minus pivot) pairs."""
        return self.classify(cap).pairs()

    def critical_faces_bruteforce(self, cap: int = DEFAULT_CAP) -> set[Face]:
        return self.classify(cap).critical()

    def homogeneous(self, classes: FaceClasses) -> bool:
        """Matched faces carry the same lcm label.  Labels are the
        unary codes of ``unary_codes``, one per face mask, each the
        ``|`` of the label of the face without its highest vertex and the
        code of that vertex."""
        _, (codes,) = unary_codes([self.basis.monomials])
        labels = [0]
        for c in codes:
            labels += [x | c for x in labels]
        return all(
            labels[f] == labels[f ^ 1 << p] for f, p in enumerate(classes.pivot) if p >= 0
        )

    def critical_faces_closed_form(self) -> set[Face]:
        """Faces contained in the descent family of their largest vertex:
        one face per (vertex, subset of its proper family)."""
        out = set()
        for i in range(self.basis.size):
            rest = sorted(v for v in self.basis.family_indices(i) if v > i)
            for k in range(len(rest) + 1):
                for sub in combinations(rest, k):
                    out.add(tuple(sorted((i,) + sub)))
        return out

    def face_records(self, classes: FaceClasses):
        """JSON-ready records of every face of a ``classify`` result."""
        variables = self.basis.og.variables
        return [
            {
                "face": list(face),
                "kind": ar.kind,
                "partner": None if ar.partner is None else list(ar.partner),
                "lcm": format_monomial(self.face_lcm(face), variables),
            }
            for face, ar in classes.arrows()
        ]


class FaceClasses(NamedTuple):
    """A family of faces over the vertices 0 .. n-1 and a matching on it:
    ``pivot[mask]`` is ABSENT for a face outside the family, UNMATCHED
    for a critical face, and otherwise the vertex that toggles to the
    face's partner (matched down when the vertex is in the face)."""

    n: int
    pivot: list[int]

    def arrows(self):
        """(face, arrow) for every face of the family, by size and then
        lexicographically."""
        pivot = self.pivot
        for k in range(self.n + 1):
            for face in combinations(range(self.n), k):
                p = pivot[_mask(face)]
                if p != ABSENT:
                    yield face, _arrow(face, p)

    def pairs(self) -> list[tuple[Face, Face]]:
        """The (face, face minus pivot) pairs, by the size and then the
        lexicographic order of the larger face."""
        return [(face, ar.partner) for face, ar in self.arrows() if ar.kind == DOWN]

    def critical(self) -> set[Face]:
        return {tuple(bit_positions(f)) for f, p in enumerate(self.pivot) if p == UNMATCHED}

    def unmatched_back(self) -> int | None:
        """The first matched face whose partner is not matched back to it
        with the same pivot, or None."""
        pivot = self.pivot
        return next((f for f, p in enumerate(pivot) if p >= 0 and pivot[f ^ 1 << p] != p), None)

    def is_matching(self) -> bool:
        """No face has two partners: the pivots are an involution."""
        return self.unmatched_back() is None

    def acyclic(self) -> bool:
        """Kahn's algorithm on the Hasse diagram of the family with each
        matched edge reversed: down edges go from each face to its
        facets in the family, and a matched pair gives the upward edge
        instead.  Successors come from the mask and the pivot; only the
        in-degrees are stored.  Needs ``is_matching``."""
        n, pivot = self.n, self.pivot
        indeg = bytearray(n - f.bit_count() for f in range(len(pivot)))
        absent = [f for f, p in enumerate(pivot) if p == ABSENT]
        for g in absent:
            for v in bit_positions(g):
                indeg[g ^ 1 << v] -= 1  # no edge from an absent coface
        for g in absent:
            indeg[g] = n + 2  # more than can reach it: it never enters the queue
        for f, p in enumerate(pivot):
            if p >= 0:
                # the down edge from the partner, or the one to it, reverses
                indeg[f] += 1 if f >> p & 1 else -1
        queue = [f for f, d in enumerate(indeg) if not d]
        push = queue.append
        done = 0
        while queue:
            f = queue.pop()
            done += 1
            p = pivot[f]
            toggle = 1 << p if p >= 0 else 0
            down = f & ~toggle  # matched down: its edge to the partner reverses
            while down:
                low = down & -down
                down ^= low
                g = f ^ low
                indeg[g] -= 1
                if not indeg[g]:
                    push(g)
            if toggle & ~f:  # matched up: the reversed edge to the partner
                g = f | toggle
                indeg[g] -= 1
                if not indeg[g]:
                    push(g)
        return done == len(pivot) - len(absent)


def is_matching(arrows) -> bool:
    """No face occurs in more than one matched pair."""
    seen = set()
    for up, down in arrows:
        if up in seen or down in seen or up == down:
            return False
        seen.add(up)
        seen.add(down)
    return True


def verify_matching_acyclic(faces, arrows) -> bool:
    """``FaceClasses.acyclic`` on a family of tuple faces and a list of
    (face, face minus one vertex) pairs; a pair with a side outside the
    family, or whose sides are not a face and one of its facets, adds no
    edge.  The family's vertices are renumbered 0 .. n-1, and 2**n may
    not exceed the default cap (TooLarge)."""
    if not is_matching(arrows):
        return False
    faces = set(faces)
    vertices = sorted({v for f in faces for v in f})
    _check_cap(len(vertices), DEFAULT_CAP)
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    pivot = [ABSENT] * (1 << len(vertices))
    for f in faces:
        pivot[sum(map(bit.__getitem__, f))] = UNMATCHED
    for up, down in arrows:
        extra = set(up) - set(down)
        if up in faces and down in faces and len(up) == len(down) + 1 and len(extra) == 1:
            p = vertices.index(extra.pop())
            pivot[sum(map(bit.__getitem__, up))] = pivot[sum(map(bit.__getitem__, down))] = p
    return FaceClasses(len(vertices), pivot).acyclic()


def verify_matching_homogeneous(arrows, lcm_of) -> bool:
    """Matched faces must carry the same lcm label; ``lcm_of`` maps a
    face to its label, as a monomial or a dense exponent tuple."""
    return all(lcm_of(up) == lcm_of(down) for up, down in arrows)
