"""The homogeneous acyclic matching on the faces of the Taylor complex.

Faces are strictly increasing tuples of vertex indices into a
PowerBasis.  The matching is a pure local classifier: every nonempty
face is critical, matched downward (its pivot vertex is removed) or
matched upward (its pivot vertex is added), and no global enumeration is
needed to classify one face.  The brute-force enumerators and verifiers
in this module exist to check the matching's claimed properties at desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .errors import EmptyFace, TooLarge, VerificationFailed
from .monomials import Monomial, format_monomial
from .powers import NEG_INF, PowerBasis, last_disagreement

Face = tuple[int, ...]

CRITICAL = "critical"
UP = "up"
DOWN = "down"


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


def face_without(face: Face, v: int) -> Face:
    return tuple(w for w in face if w != v)


def face_with(face: Face, v: int) -> Face:
    out = sorted(face + (v,))
    return tuple(out)


def incidence(face: Face, v: int) -> int:
    """Sign of dropping vertex v from the face: (-1) ** position."""
    return -1 if face.index(v) % 2 else 1


class TaylorMatching:
    """The matching attached to one PowerBasis."""

    def __init__(self, basis: PowerBasis):
        self.basis = basis

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

    def face_stats(self, face: Face) -> FaceStats:
        if not face:
            raise EmptyFace("the empty face is not classified")
        top = face[0]
        family = self.basis.family_indices(top)
        outside = [v for v in face if v not in family]
        if not outside:
            return FaceStats(top, NEG_INF, None)
        vectors = self.basis.vectors
        a = vectors[top]
        level = max(last_disagreement(a, vectors[v]) for v in outside)
        return FaceStats(top, level, self.basis.move_index(top, level))

    def arrow(self, face: Face) -> MatchArrow:
        """Classify one face: critical when it sits inside the descent
        family of its top vertex, otherwise matched with the face that
        toggles the pivot vertex."""
        st = self.face_stats(face)
        if st.pivot is None:
            return MatchArrow(CRITICAL, None, None)
        if st.pivot in face:
            return MatchArrow(DOWN, face_without(face, st.pivot), st.pivot)
        return MatchArrow(UP, face_with(face, st.pivot), st.pivot)

    # ------------------------------------------------------------------
    # brute-force enumeration and verification

    def all_faces(self, cap: int = 1 << 20) -> list[Face]:
        n = self.basis.size
        if 1 << n > cap:
            raise TooLarge(
                f"2**{n} faces exceed the cap of {cap}", cap=cap
            )
        out: list[Face] = []
        for k in range(1, n + 1):
            out.extend(combinations(range(n), k))
        return out

    def enumerate_arrows(self, cap: int = 1 << 20):
        """Classify every nonempty face; matched faces must pair up.

        Returns a list of (face, arrow).  The involution is checked:
        the partner of a matched face is matched back to it with the
        same pivot, else VerificationFailed is raised.
        """
        faces = self.all_faces(cap)
        classified = [(f, self.arrow(f)) for f in faces]
        arrow_of = dict(classified)
        for face, ar in classified:
            if ar.kind == CRITICAL:
                continue
            back = MatchArrow(DOWN if ar.kind == UP else UP, face, ar.pivot)
            if arrow_of[ar.partner] != back:
                raise VerificationFailed(f"{ar.partner} is not matched back to {face}")
        return classified

    def matched_pairs(self, cap: int = 1 << 20) -> list[tuple[Face, Face]]:
        """The matching as (face, face minus pivot) pairs."""
        return split_arrows(self.enumerate_arrows(cap)).pairs

    def critical_faces_bruteforce(self, cap: int = 1 << 20) -> set[Face]:
        return split_arrows(self.enumerate_arrows(cap)).critical

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

    def face_records(self, classified):
        """JSON-ready records of an ``enumerate_arrows`` result."""
        variables = self.basis.og.variables
        return [
            {
                "face": list(face),
                "kind": ar.kind,
                "partner": None if ar.partner is None else list(ar.partner),
                "lcm": format_monomial(self.face_lcm(face), variables),
            }
            for face, ar in classified
        ]


class FaceClasses(NamedTuple):
    """One ``enumerate_arrows`` result without its arrows: every face,
    the matched (face, face minus pivot) pairs, and the critical faces."""

    faces: list[Face]
    pairs: list[tuple[Face, Face]]
    critical: set[Face]


def split_arrows(classified) -> FaceClasses:
    """Split an ``enumerate_arrows`` result by the kind of each arrow."""
    out = FaceClasses([], [], set())
    for face, ar in classified:
        out.faces.append(face)
        if ar.kind == DOWN:
            out.pairs.append((face, ar.partner))
        elif ar.kind == CRITICAL:
            out.critical.add(face)
    return out


def vertex_matching(faces, v: int) -> list[tuple[Face, Face]]:
    """Match each face containing v with the face dropping v, whenever
    both lie in the given family.  Always an acyclic matching."""
    face_set = set(faces)
    return [
        (f, face_without(f, v))
        for f in sorted(face_set)
        if v in f and face_without(f, v) in face_set
    ]


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
    """Build the face digraph with matched edges reversed and check it
    has no directed cycle (Kahn's algorithm).

    Down edges go from each face to its facets inside the family;
    each matched pair contributes the reversed (upward) edge instead.
    """
    if not is_matching(arrows):
        return False
    face_set = set(faces)
    matched = set(arrows)
    out: dict[Face, list[Face]] = {f: [] for f in face_set}
    indeg: dict[Face, int] = {f: 0 for f in face_set}
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


def verify_matching_homogeneous(arrows, lcm_of) -> bool:
    """Matched faces must carry the same lcm label; ``lcm_of`` maps a
    face to its label, as a monomial or a dense exponent tuple."""
    return all(lcm_of(up) == lcm_of(down) for up, down in arrows)
