"""Critical cells, gradient paths, and the Morse differential.

A critical cell is a pair (a, moves): the face consisting of the vector
a together with its single moves at the slots in ``moves``.  The Morse
complex has one i-cell per critical cell with |moves| = i.  Its
differential is the boundary of a cube in the cell's move coordinates
(``MorseComplex.cube_boundary``): dropping the p-th move gives the cell
that keeps the vector with sign -(-1)^p and the cell on the moved vector
with sign (-1)^p.  Labels and shifts are closed-form too: the label of
(a, moves) is m^a times the free vertices of each moved slot, and each
entry's shift is fixed by the one move it drops.  Everything here stays
inside small neighbourhoods of one cell, so resolutions are built
without enumerating the Taylor complex.

The standard discrete-Morse path sum stays as the oracle: walk from each
facet of a critical cell through alternating up/down steps of the
matching until critical cells are reached, multiplying incidence signs
(up steps contribute the negated incidence of the reversed inclusion).
``MorseComplex.differential`` sums the memoized flow, and
``MorseComplex.paths_match_closure`` sums ``path_weight`` over the
enumerated gradient paths and compares the totals with a built complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import TooLarge, VerificationFailed
from .matching import CRITICAL, DOWN, UP, Face, TaylorMatching, face_without, incidence
from .monomials import Monomial, squarefree_part
from .powers import move_many, move_to_joint, support


@dataclass(frozen=True)
class CriticalCell:
    """The face {a} U {move of a at j : j in moves}; ``moves`` is a
    sorted tuple of support slots of a, never containing slot 0."""

    a: tuple[int, ...]
    moves: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.moves)


def closure_facets(cell: CriticalCell, joints) -> list[CriticalCell]:
    """The critical cells one dimension down that are attached to the
    cell in the Morse complex: drop one move, on the vector itself or on
    its moved copy."""
    out = []
    moves = cell.moves
    for p, k in enumerate(moves):
        rest = moves[:p] + moves[p + 1:]
        out.append(CriticalCell(cell.a, rest))
        out.append(CriticalCell(move_to_joint(cell.a, k, joints), rest))
    # the two families can never collide: their top vectors differ
    if len(set(out)) != len(out):
        raise VerificationFailed(f"attached cells of {cell} collide")
    return out


@dataclass(frozen=True)
class GradientPath:
    """An alternating walk: up into the partner of the current face,
    then down to a facet, ending at a critical face."""

    faces: tuple[Face, ...]


class MorseComplex:
    def __init__(self, matching: TaylorMatching):
        self.matching = matching
        self.basis = matching.basis
        self._flow_memo: dict[Face, dict[Face, int]] = {}
        og = self.basis.og
        # the shift of dropping move k: x^(F_k - F_joint(k)) when the
        # vector stays, x^(F_joint(k) - F_k) when it moves to its joint
        self._stay_shift = [squarefree_part(f) for f in og.free_sets]
        self._move_shift = [
            squarefree_part(og.facets[u] - f) for u, f in zip(og.joints, og.facets)
        ]

    # ------------------------------------------------------------------
    # cells

    def critical_cells(self) -> list[list[CriticalCell]]:
        """All critical cells grouped by dimension, without enumerating
        the Taylor complex.  Cell counts in dimension i are the sums of
        C(|Supp(a)| - 1, i) over the weight-r vectors a."""
        top = max(
            (len(support(a) - {0}) for a in self.basis.vectors), default=0
        )
        by_dim: list[list[CriticalCell]] = [[] for _ in range(top + 1)]
        for a in self.basis.vectors:
            slots = sorted(support(a) - {0})
            for k in range(len(slots) + 1):
                for sub in combinations(slots, k):
                    by_dim[k].append(CriticalCell(a, sub))
        return by_dim

    def cell_face(self, cell: CriticalCell) -> Face:
        i = self.basis.index_of[cell.a]
        verts = {i}
        for j in cell.moves:
            verts.add(self.basis.move_index(i, j))
        return tuple(sorted(verts))

    def cell_lcm(self, cell: CriticalCell) -> Monomial:
        """Label of the cell: the vector's exponents plus one for each
        free vertex of each moved slot's facet (the free sets are
        disjoint).  Equals the plain lcm of the cell's vertices, which
        ``TaylorMatching.face_lcm`` computes independently.
        """
        basis = self.basis
        x = list(basis.exponents[basis.index_of[cell.a]])
        free_sets = basis.og.free_sets
        for j in cell.moves:
            for v in free_sets[j]:
                x[v] += 1
        return Monomial.from_exponents(x)

    def closure_facets(self, cell: CriticalCell) -> list[CriticalCell]:
        """``closure_facets`` with this complex's joints."""
        return closure_facets(cell, self.basis.og.joints)

    def cube_boundary(self, cell: CriticalCell):
        """Boundary of a critical cell in closed form: list of (cell',
        coefficient, shift), the boundary of a cube in the cell's move
        coordinates.

        Dropping the p-th move k gives the cell keeping the vector with
        coefficient -(-1)^p and shift x^(F_k - F_joint(k)), and the cell
        on the moved vector with coefficient (-1)^p and shift
        x^(F_joint(k) - F_k).  ``differential`` computes the same list
        from the gradient flow.
        """
        closure = self.closure_facets(cell)
        out = []
        sign = -1
        # closure_facets lists, per move, the cell keeping the vector and
        # then the cell on the moved vector
        for k, stay, moved in zip(cell.moves, closure[::2], closure[1::2]):
            out.append((stay, sign, self._stay_shift[k]))
            out.append((moved, -sign, self._move_shift[k]))
            sign = -sign
        return out

    # ------------------------------------------------------------------
    # gradient flow and the path-sum differential

    def _flow(self, start: Face) -> dict[Face, int]:
        """Signed count of gradient paths from ``start`` to each critical
        face, computed by memoized post-order traversal of the acyclic
        matched digraph (explicit work stack, no recursion)."""
        memo = self._flow_memo
        arrow = self.matching.arrow
        stack = [start]
        while stack:
            face = stack[-1]
            if face in memo:
                stack.pop()
                continue
            ar = arrow(face)
            if ar.kind == CRITICAL:
                memo[face] = {face: 1}
                stack.pop()
                continue
            if ar.kind == DOWN:
                memo[face] = {}
                stack.pop()
                continue
            partner = ar.partner
            subs = [
                face_without(partner, w) for w in partner if w != ar.pivot
            ]
            pending = [s for s in subs if s not in memo]
            if pending:
                stack.extend(pending)
                continue
            up_sign = -incidence(partner, ar.pivot)
            total: dict[Face, int] = {}
            for w in partner:
                if w == ar.pivot:
                    continue
                sgn = up_sign * incidence(partner, w)
                for end, c in memo[face_without(partner, w)].items():
                    total[end] = total.get(end, 0) + sgn * c
            memo[face] = {end: c for end, c in total.items() if c}
            stack.pop()
        return memo[start]

    def differential(self, cell: CriticalCell):
        """Boundary of a critical cell by the gradient-path sum: list of
        (cell', coefficient, shift) with unit coefficients and shift =
        label(cell) / label(cell').

        This is the oracle for ``cube_boundary``, which the build uses.
        Every cell' is an attached cell that drops one move k, and the
        shift depends on k alone: x^(F_k - F_joint(k)) when cell' keeps
        the vector, x^(F_joint(k) - F_k) when it holds the moved vector.
        A facet matched down, a non-unit coefficient or a flow end
        outside the attached cells raises VerificationFailed.
        """
        face = self.cell_face(cell)
        attached: dict[Face, tuple[CriticalCell, Monomial]] = {
            self.cell_face(sub): (sub, shift)
            for sub, _, shift in self.cube_boundary(cell)
        }
        coeffs: dict[Face, int] = {}
        for v in face:
            sgn = incidence(face, v)
            sub = face_without(face, v)
            ar = self.matching.arrow(sub)
            if ar.kind == CRITICAL:
                coeffs[sub] = coeffs.get(sub, 0) + sgn
            elif ar.kind == UP:
                for end, c in self._flow(sub).items():
                    coeffs[end] = coeffs.get(end, 0) + sgn * c
            else:
                # a facet of a critical cell is critical or matched up
                raise VerificationFailed(f"facet {sub} of critical {face} matched down")
        out = []
        for end in sorted(coeffs):
            c = coeffs[end]
            if c == 0:
                continue
            if c not in (1, -1):
                raise VerificationFailed(
                    f"non-unit coefficient {c} from {face} to {end}"
                )
            hit = attached.get(end)
            if hit is None:
                raise VerificationFailed(
                    f"flow from {cell} ends at {end}, outside its attached cells"
                )
            out.append((hit[0], c, hit[1]))
        return out

    # ------------------------------------------------------------------
    # gradient paths, explicit and brute force

    def explicit_path(self, a, moves, k) -> GradientPath:
        """The canonical gradient path from the cell's facet that drops
        the vector a down to the critical cell on the moved vector at k.

        The walk sweeps the move slots from the largest down: each up
        step inserts a double move, each down step removes the previous
        stage's entry, one row per slot up to k's position.  Every up
        step is checked to be the reversal of the matched arrow of the
        current face.
        """
        basis = self.basis
        joints = basis.og.joints
        slots = sorted(moves)
        if k not in slots or len(slots) < 2:
            raise ValueError("need at least two moves and k among them")
        s = len(slots)
        e = slots.index(k) + 1

        def vertex(move_set) -> int:
            return basis.index_of[move_many(a, move_set, joints)]

        current = {vertex({j}) for j in slots}
        faces = [tuple(sorted(current))]

        def apply(added, removed):
            current.add(vertex(added))
            faces.append(tuple(sorted(current)))
            current.remove(vertex(removed))
            faces.append(tuple(sorted(current)))

        for i in range(1, e + 1):
            di = slots[i - 1]
            for j in range(s, e, -1):
                dj = slots[j - 1]
                removed = {dj} if i == 1 else {slots[i - 2], dj}
                apply({di, dj}, removed)
            if i < e:
                apply({di, slots[e - 1]}, {di})

        path = GradientPath(tuple(faces))
        end_cell = CriticalCell(
            move_to_joint(a, k, joints), tuple(j for j in slots if j != k)
        )
        if not self.is_valid_path(path) or faces[-1] != self.cell_face(end_cell):
            raise VerificationFailed(f"explicit path from {a} at slot {k} is broken")
        return path

    def is_valid_path(self, path: GradientPath) -> bool:
        """Check the alternating up/down structure: up steps reverse the
        matched arrow of the current face, down steps drop a non-pivot
        vertex, and only the final face may be critical."""
        faces = path.faces
        if len(faces) < 3 or len(faces) % 2 == 0:
            return False
        for t in range(0, len(faces) - 1, 2):
            low, high, nxt = faces[t], faces[t + 1], faces[t + 2]
            ar = self.matching.arrow(low)
            if ar.kind != UP or ar.partner != high:
                return False
            dropped = set(high) - set(nxt)
            if len(dropped) != 1 or not set(nxt) <= set(high):
                return False
            if dropped.pop() == self.matching.arrow(high).pivot:
                return False
        for t in range(2, len(faces) - 1, 2):
            if self.matching.arrow(faces[t]).kind == CRITICAL:
                return False
        return self.matching.arrow(faces[-1]).kind == CRITICAL

    def path_weight(self, path: GradientPath) -> int:
        """Signed weight of a gradient path: the product over its up/down
        steps of the negated incidence of the up step and the incidence
        of the down step.  ``paths_match_closure`` sums it per end."""
        w = 1
        for t in range(0, len(path.faces) - 1, 2):
            low, high, nxt = path.faces[t], path.faces[t + 1], path.faces[t + 2]
            pivot = (set(high) - set(low)).pop()
            dropped = (set(high) - set(nxt)).pop()
            w *= -incidence(high, pivot) * incidence(high, dropped)
        return w

    def gradient_paths(self, start: Face, cap: int) -> dict[Face, list[GradientPath]]:
        """Every gradient path from ``start``, grouped by the critical
        face it ends at: one depth-first search that leaves a non-critical
        face upward and stops at the first critical face reached.  Raises
        TooLarge after more than ``cap`` steps."""
        arrow = self.matching.arrow
        ends: dict[Face, list[GradientPath]] = {}
        stack = [(start, (start,))]
        steps = 0
        while stack:
            face, trail = stack.pop()
            ar = arrow(face)
            if ar.kind != UP:
                continue
            partner = ar.partner
            for w in sorted(partner, reverse=True):
                if w == ar.pivot:
                    continue
                steps += 1
                if steps > cap:
                    raise TooLarge(f"more than {cap} path steps explored", cap=cap)
                sub = face_without(partner, w)
                trail2 = trail + (partner, sub)
                if arrow(sub).kind == CRITICAL:
                    ends.setdefault(sub, []).append(GradientPath(trail2))
                else:
                    stack.append((sub, trail2))
        return ends

    def paths_bruteforce(self, start: Face, end: Face, cap: int = 100000):
        """Every gradient path from ``start`` to the critical face
        ``end``, sorted; the ``gradient_paths`` search filtered to one end.
        """
        paths = self.gradient_paths(start, cap).get(end, [])
        return sorted(paths, key=lambda p: p.faces)

    def paths_match_closure(self, complex, cap: int) -> bool:
        """Gradient-path oracle for ``complex``, a built ``ChainComplex``
        on this complex's critical cells.  From the facet of each
        critical cell that drops its vector, the gradient paths end
        exactly on the attached cells on moved vectors, and the explicit
        path to each of them is among those paths; the attached cells
        that keep the vector are literal subfaces.  The incidence sign of
        each literal subface and the signed ``path_weight`` sums of the
        paths found give the path-sum differential, which must equal the
        cell's column in ``complex.maps``.  One search per cell, each
        bounded by ``cap`` steps (TooLarge beyond it)."""
        top_of = self.basis.index_of
        by_dim = self.critical_cells()
        if complex.basis != by_dim:
            return False
        columns: dict[CriticalCell, dict[Face, int]] = {}
        for i, entries in complex.maps.items():
            rows, cols = complex.basis[i - 1], complex.basis[i]
            for (row, col), (c, _) in entries.items():
                columns.setdefault(cols[col], {})[self.cell_face(rows[row])] = c
        for cells in by_dim[1:]:
            for cell in cells:
                face = self.cell_face(cell)
                top = top_of[cell.a]
                start = tuple(v for v in face if v != top)
                closure = self.closure_facets(cell)
                sums: dict[Face, int] = {}
                for sub in closure:
                    if sub.a != cell.a:
                        continue
                    # a literal subface: one vertex fewer, one vertex dropped
                    sub_face = self.cell_face(sub)
                    dropped = set(face) - set(sub_face)
                    if len(dropped) != 1:
                        return False
                    sums[sub_face] = incidence(face, dropped.pop())
                if cell.dim < 2:
                    # the facet dropping the vector is itself critical
                    sums[start] = incidence(face, top)
                else:
                    ends = self.gradient_paths(start, cap)
                    # one attached cell on a moved vector per move, in move order
                    moved = [self.cell_face(sub) for sub in closure if sub.a != cell.a]
                    if set(ends) != set(moved):
                        return False
                    for k, end in zip(cell.moves, moved):
                        explicit = self.explicit_path(cell.a, cell.moves, k)
                        if explicit.faces not in {p.faces for p in ends[end]}:
                            return False
                    sign = incidence(face, top)
                    for end, paths in ends.items():
                        sums[end] = sign * sum(map(self.path_weight, paths))
                if {f: c for f, c in sums.items() if c} != columns.get(cell, {}):
                    return False
        return True
