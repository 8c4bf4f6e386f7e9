"""The homogeneous acyclic matching on the faces of the Taylor complex.

A face is an int mask over the vertex indices of a PowerBasis (bit v =
vertex v).  The matching is a pure local classifier,
``TaylorMatching.pivot``: a nonempty face is critical (UNMATCHED), or
its partner is the face ``mask ^ 1 << p`` that toggles its pivot vertex
p, and it is matched downward exactly when ``mask >> p & 1``.  No global
enumeration is needed to classify one face.  The brute-force
enumerators and verifiers in this module exist to check the matching's
claimed properties at desk scale.  They hold the pivots in a list
indexed by mask, and check them on int bitsets over the masks, one
whole-int operation per vertex.

Faces become strictly increasing tuples of vertex indices only at the
report and test boundary: ``face_lcm``, ``face_records`` and
``FaceClasses.pairs``/``critical``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import and_, or_
from typing import NamedTuple

from .errors import EmptyFace, TooLarge, VerificationFailed
from .monomials import Monomial, bit_positions, format_monomial, unary_codes
from .powers import PowerBasis, last_disagreement

Face = tuple[int, ...]

CRITICAL = "critical"
UP = "up"
DOWN = "down"

# pivot entries of a face mask that is critical, or outside the family
UNMATCHED = -1
ABSENT = -2

DEFAULT_CAP = 1 << 20


def incidence(mask: int, v: int) -> int:
    """Sign of dropping vertex v from the face mask: (-1) ** position,
    the position being the number of the face's vertices below v."""
    return -1 if (mask & ((1 << v) - 1)).bit_count() & 1 else 1


def face_mask(face: Face) -> int:
    """The mask of a tuple face."""
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

    def _top_last(self, mask: int) -> tuple[int, int]:
        """The top vertex of a nonempty face mask, its lowest set bit,
        and the face's last vertex outside the top vector's descent
        family, or the top itself when there is none."""
        if not mask:
            raise EmptyFace("the empty face is not classified")
        top = (mask & -mask).bit_length() - 1
        outside = mask & ~self._family_mask(top)
        return top, (outside.bit_length() - 1 if outside else top)

    def _level_at(self, top: int, last: int) -> int:
        """The level of a face with top vertex ``top`` whose last vertex
        outside the family is ``last``: the last disagreement of the two
        vectors, since it never falls as the vertex index grows."""
        k = (last - top).bit_length() - 1
        row = self._step_maxima[k]
        return max(row[top], row[last - (1 << k)])

    def _move_at(self, top: int, last: int) -> int:
        """The pivot of every face with top vertex ``top`` whose last
        vertex outside the family is ``last``: the top vector's move at
        the level."""
        return self.basis.move_index(top, self._level_at(top, last))

    def pivot(self, mask: int) -> int:
        """Classify one nonempty face mask: UNMATCHED when the face sits
        inside the descent family of its top vertex, otherwise the
        vertex whose toggle gives its partner, the top vector's move at
        the face's level."""
        top, last = self._top_last(mask)
        return UNMATCHED if last == top else self._move_at(top, last)

    def _top_pivots(self, top: int) -> list[int]:
        """The pivots of the faces whose top vertex is ``top``, indexed
        by the face's vertices above the top as a mask shifted down by
        top + 1.  Each vertex j above the top doubles the list: inside
        the family it leaves the pivot as it was, and outside it the
        faces holding it all take ``_move_at(top, j)``."""
        family = self._family_mask(top)
        out = [UNMATCHED]
        for j in range(top + 1, self.basis.size):
            if family >> j & 1:
                out += out
            else:
                out += [self._move_at(top, j)] * len(out)
        return out

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
        """The ``pivot`` of every nonempty face, filled one top vertex
        at a time: the faces with top vertex t are the masks t + 1 modulo
        2**(t + 1), one slice of the list.  The pivots must be an
        involution: the partner of a matched face is matched back to it
        with the same pivot.  Else VerificationFailed is raised."""
        n = self.basis.size
        _check_cap(n, cap)
        pivot = [ABSENT] * (1 << n)
        for top in range(n):
            pivot[1 << top :: 1 << (top + 1)] = self._top_pivots(top)
        classes = FaceClasses(n, pivot)
        f = classes.unmatched_back
        if f is not None:
            partner = f ^ 1 << classes.pivot[f]
            raise VerificationFailed(
                f"{tuple(bit_positions(partner))} is not matched back to {tuple(bit_positions(f))}"
            )
        return classes

    def homogeneous(self, classes: FaceClasses) -> bool:
        """Matched faces carry the same lcm label.  Labels are the
        unary codes of ``unary_codes``, where lcm is ``|``, so a pair
        toggling v has one label exactly when v's code lies inside the
        label of the smaller face: for each bit of the code, the face
        meets a vertex whose code has that bit."""
        _, (codes,) = unary_codes([self.basis.monomials])
        bits = classes.bits
        meeting = {  # the faces meeting the vertices whose code has bit b
            b: reduce(or_, (has_u for has_u, c in zip(bits.holding, codes) if c >> b & 1))
            for b in bit_positions(reduce(or_, codes, 0))
        }
        for v, code in enumerate(codes):
            cover = reduce(and_, map(meeting.__getitem__, bit_positions(code)), -1)
            if (bits.up[v] | bits.down[v] >> (1 << v)) & ~cover:
                return False
        return True

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
        """JSON-ready records of every face of a ``classify`` result,
        each face's kind and partner read off its pivot."""
        variables, pivot = self.basis.og.variables, classes.pivot
        out = []
        for face, mask in classes.faces():
            p = pivot[mask]
            out.append({
                "face": list(face),
                "kind": CRITICAL if p == UNMATCHED else DOWN if mask >> p & 1 else UP,
                "partner": None if p == UNMATCHED else bit_positions(mask ^ 1 << p),
                "lcm": format_monomial(self.face_lcm(face), variables),
            })
        return out


def _faces_at(lanes: list[bytes], code: int) -> int:
    """The bitset of the masks whose pivot byte is ``code``.  Lane k of
    the pivot bytes holds the masks k, k + 8, k + 16, ...; translated to
    1 at ``code`` and 0 elsewhere and read as a little-endian int, it has
    bit 8m set for mask 8m + k, so a shift by k puts every bit in place."""
    table = bytearray(256)
    table[code] = 1
    out = 0
    for k, lane in enumerate(lanes):
        out |= int.from_bytes(lane.translate(table), "little") << k
    return out


def _holding(v: int, size: int) -> int:
    """The masks below ``size``, a power of two, that hold vertex v: one
    period of 2**(v + 1) masks, doubled until it spans them all."""
    step = 1 << v
    out = ((1 << step) - 1) << step
    width = step << 1
    while width < size:
        out |= out << width
        width <<= 1
    return out


class FaceBits(NamedTuple):
    """The facts of a ``FaceClasses`` as int bitsets over the face
    masks, bit f for face f: per vertex v the masks holding v, the faces
    matched up at v and the faces matched down at v."""

    holding: list[int]
    up: list[int]
    down: list[int]


@dataclass(frozen=True)
class FaceClasses:
    """A family of faces over the vertices 0 .. n-1 and a matching on it:
    ``pivot[mask]`` is ABSENT for a face outside the family, UNMATCHED
    for a critical face, and otherwise the vertex that toggles to the
    face's partner (matched down when the vertex is in the face).  The
    checks read ``bits``, made on first use."""

    n: int
    pivot: list[int]

    @cached_property
    def bits(self) -> FaceBits:
        """One pass packs the pivots into signed bytes (ABSENT is 254,
        UNMATCHED 255), dealt into eight lanes; then one ``translate``
        per lane picks out the faces of each vertex."""
        size = len(self.pivot)
        codes = struct.pack(f"{size}b", *self.pivot)
        lanes = [codes[k::8] for k in range(8)]
        holding, up, down = [], [], []
        for v in range(self.n):
            at_v = _faces_at(lanes, v)
            has_v = _holding(v, size)
            holding.append(has_v)
            up.append(at_v & ~has_v)
            down.append(at_v & has_v)
        return FaceBits(holding, up, down)

    def faces(self):
        """(face, mask) for every face of the family, by size and then
        lexicographically."""
        for k in range(self.n + 1):
            for face in combinations(range(self.n), k):
                mask = face_mask(face)
                if self.pivot[mask] != ABSENT:
                    yield face, mask

    def pairs(self) -> list[tuple[Face, Face]]:
        """The (face, face minus pivot) pairs, by the size and then the
        lexicographic order of the larger face."""
        pivot = self.pivot
        return [
            (face, tuple(bit_positions(mask ^ 1 << pivot[mask])))
            for face, mask in self.faces()
            if pivot[mask] >= 0 and mask >> pivot[mask] & 1
        ]

    def critical(self) -> set[Face]:
        """The faces matched to none."""
        pivot, out = self.pivot, set()
        f = -1
        try:
            while True:
                f = pivot.index(UNMATCHED, f + 1)
                out.add(tuple(bit_positions(f)))
        except ValueError:
            return out

    @cached_property
    def unmatched_back(self) -> int | None:
        """The first matched face whose partner is not matched back to it
        with the same pivot, or None: at each vertex v, the faces matched
        up must be those matched down, shifted by 2**v.  Made on first
        use, by ``classify`` for its own results."""
        bits, bad = self.bits, 0
        for v, (up, down) in enumerate(zip(bits.up, bits.down)):
            bad |= up & ~(down >> (1 << v)) | down & ~(up << (1 << v))
        return (bad & -bad).bit_length() - 1 if bad else None

    def is_matching(self) -> bool:
        """No face has two partners: the pivots are an involution."""
        return self.unmatched_back is None

    def acyclic(self) -> bool:
        """Kahn's algorithm in whole rounds on the Hasse diagram of the
        family with each matched edge reversed: down edges go from each
        face to its facets in the family, and a matched pair gives the
        upward edge instead.  No cycle passes through a critical face:
        a face entered by an up step is matched down and has no edge up,
        so up and down steps alternate around a cycle, and each face on
        it is entered or left by its matched edge.  So the rounds run on
        the matched faces only.  A round removes every source of the faces
        left, all at once.  A face f without vertex v keeps an edge in
        when f + 2**v is left and not matched down at v, and a face f
        with v when f - 2**v is left and matched up at v: one shift of
        the faces left each way.
        The family is acyclic exactly when nothing is left; a round with
        no source has found a cycle.  A round costs a few int operations
        per vertex over 2**n bits, and there are as many rounds as the
        longest path of matched faces has faces: 38 for each
        15-vertex basis of q = 3, r = 4, and 53 for the 20 vertices
        of the q = 4, r = 3 path complement.  Needs ``is_matching``."""
        bits = self.bits
        edges = [
            (1 << v, has_v ^ down, up)
            for v, (has_v, up, down) in enumerate(zip(bits.holding, bits.up, bits.down))
        ]
        left = reduce(or_, bits.up + bits.down, 0)
        while left:
            entered = 0
            for shift, falls, rises in edges:
                entered |= (left & falls) >> shift | (left & rises) << shift
            if not left & ~entered:
                return False
            left &= entered
        return True


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
