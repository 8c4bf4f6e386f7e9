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
``MorseComplex.path_sum`` adds the incidence signs of a cell's literal
subfaces to the ``path_weight`` totals of one ``gradient_paths`` search,
and ``MorseComplex.paths_match_closure`` compares those sums with a
built complex.  The search runs on int face masks and asks
``TaylorMatching.pivot`` at each face: an up step toggles the pivot in,
a down step drops one other vertex.  ``cell_face`` and
``GradientPath.faces`` are the tuple views for reports and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import TooLarge, VerificationFailed
from .matching import UNMATCHED, Face, TaylorMatching, incidence
from .monomials import Monomial, bit_positions, squarefree_part
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


@dataclass(frozen=True)
class GradientPath:
    """An alternating walk of face masks: up into the partner of the
    current face, then down to a facet, ending at a critical face."""

    masks: tuple[int, ...]

    @property
    def faces(self) -> tuple[Face, ...]:
        """The walk as vertex tuples."""
        return tuple(tuple(bit_positions(m)) for m in self.masks)


class MorseComplex:
    def __init__(self, matching: TaylorMatching):
        self.matching = matching
        self.basis = matching.basis
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

    def cell_mask(self, cell: CriticalCell) -> int:
        """The face of the cell as a mask."""
        i = self.basis.index_of[cell.a]
        mask = 1 << i
        for j in cell.moves:
            mask |= 1 << self.basis.move_index(i, j)
        return mask

    def cell_face(self, cell: CriticalCell) -> Face:
        return tuple(bit_positions(self.cell_mask(cell)))

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
        """The critical cells one dimension down that are attached to the
        cell in the Morse complex: drop one move, on the vector itself or
        on its moved copy."""
        joints = self.basis.og.joints
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

    def cube_boundary(self, cell: CriticalCell):
        """Boundary of a critical cell in closed form: list of (cell',
        coefficient, shift), the boundary of a cube in the cell's move
        coordinates.

        Dropping the p-th move k gives the cell keeping the vector with
        coefficient -(-1)^p and shift x^(F_k - F_joint(k)), and the cell
        on the moved vector with coefficient (-1)^p and shift
        x^(F_joint(k) - F_k).  ``path_sum`` gives the same coefficients
        from the gradient paths.
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
    # gradient paths and the path-sum differential

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

        def bit(move_set) -> int:
            return 1 << basis.index_of[move_many(a, move_set, joints)]

        masks = [sum(bit({j}) for j in slots)]

        def apply(added, removed):
            masks.append(masks[-1] | bit(added))
            masks.append(masks[-1] & ~bit(removed))

        for i in range(1, e + 1):
            di = slots[i - 1]
            for j in range(s, e, -1):
                dj = slots[j - 1]
                removed = {dj} if i == 1 else {slots[i - 2], dj}
                apply({di, dj}, removed)
            if i < e:
                apply({di, slots[e - 1]}, {di})

        path = GradientPath(tuple(masks))
        end_cell = CriticalCell(
            move_to_joint(a, k, joints), tuple(j for j in slots if j != k)
        )
        if not self.is_valid_path(path) or masks[-1] != self.cell_mask(end_cell):
            raise VerificationFailed(f"explicit path from {a} at slot {k} is broken")
        return path

    def is_valid_path(self, path: GradientPath) -> bool:
        """Check the alternating up/down structure: up steps reverse the
        matched arrow of the current face, down steps drop a non-pivot
        vertex, and only the final face may be critical (every face an
        up step leaves is matched up)."""
        masks, pivot = path.masks, self.matching.pivot
        if len(masks) < 3 or len(masks) % 2 == 0:
            return False
        for t in range(0, len(masks) - 1, 2):
            low, high, nxt = masks[t], masks[t + 1], masks[t + 2]
            p = pivot(low)
            if p == UNMATCHED or low >> p & 1 or low | 1 << p != high:
                return False
            dropped = high ^ nxt
            if nxt & ~high or dropped.bit_count() != 1:
                return False
            if dropped.bit_length() - 1 == pivot(high):
                return False
        return pivot(masks[-1]) == UNMATCHED

    def path_weight(self, path: GradientPath) -> int:
        """Signed weight of a gradient path: the product over its up/down
        steps of the negated incidence of the up step and the incidence
        of the down step.  ``path_sum`` sums it per end."""
        w, masks = 1, path.masks
        for t in range(0, len(masks) - 1, 2):
            low, high, nxt = masks[t], masks[t + 1], masks[t + 2]
            pivot = (high & ~low).bit_length() - 1
            dropped = (high & ~nxt).bit_length() - 1
            w *= -incidence(high, pivot) * incidence(high, dropped)
        return w

    def gradient_paths(self, start: int, cap: int) -> dict[int, list[GradientPath]]:
        """Every gradient path from the face mask ``start``, grouped by
        the critical face mask it ends at: one depth-first search that
        leaves a non-critical face upward and stops at the first critical
        face reached.  Raises TooLarge after more than ``cap`` steps."""
        pivot = self.matching.pivot
        ends: dict[int, list[GradientPath]] = {}
        stack = [(start, (start,))]
        steps = 0
        while stack:
            face, trail = stack.pop()
            p = pivot(face)
            if p == UNMATCHED or face >> p & 1:
                continue
            partner = face | 1 << p
            # down from the partner, dropping the face's own vertices
            for w in reversed(bit_positions(face)):
                steps += 1
                if steps > cap:
                    raise TooLarge(f"more than {cap} path steps explored", cap=cap)
                sub = partner ^ 1 << w
                trail2 = trail + (partner, sub)
                if pivot(sub) == UNMATCHED:
                    ends.setdefault(sub, []).append(GradientPath(trail2))
                else:
                    stack.append((sub, trail2))
        return ends

    def path_sum(self, cell: CriticalCell, cap: int) -> dict[int, int] | None:
        """The path-sum differential of a critical cell: {end face mask:
        coefficient}, zeros dropped (empty for a 0-cell), or None when a
        check fails.

        The attached cells that keep the vector are literal subfaces,
        each with its incidence sign.  From the facet that drops the
        vector, one ``gradient_paths`` search (TooLarge beyond ``cap``
        steps) must end exactly on the attached cells on moved vectors,
        and the explicit path to each of them must be among the paths
        found; each end gets the signed ``path_weight`` sum of its paths.
        """
        face = self.cell_mask(cell)
        # the vector is the colex-largest vertex, the lowest set bit of
        # the mask, so dropping it has incidence +1 and the path sums from
        # this facet need no sign
        start = face ^ 1 << self.basis.index_of[cell.a]
        closure = self.closure_facets(cell)
        sums: dict[int, int] = {}
        for sub in closure:
            if sub.a != cell.a:
                continue
            # a literal subface: one vertex fewer, one vertex dropped
            sub_face = self.cell_mask(sub)
            dropped = face & ~sub_face
            if dropped.bit_count() != 1:
                return None
            sums[sub_face] = incidence(face, dropped.bit_length() - 1)
        if cell.dim == 1:
            # the facet dropping the vector is itself critical
            sums[start] = 1
        elif cell.dim > 1:
            ends = self.gradient_paths(start, cap)
            # one attached cell on a moved vector per move, in move order
            moved = [self.cell_mask(sub) for sub in closure if sub.a != cell.a]
            if set(ends) != set(moved):
                return None
            for k, end in zip(cell.moves, moved):
                explicit = self.explicit_path(cell.a, cell.moves, k)
                if explicit.masks not in {p.masks for p in ends[end]}:
                    return None
            for end, paths in ends.items():
                sums[end] = sum(map(self.path_weight, paths))
        return {f: c for f, c in sums.items() if c}

    def paths_match_closure(self, complex, cap: int) -> bool:
        """Gradient-path oracle for ``complex``, a built ``ChainComplex``
        on this complex's critical cells: the ``path_sum`` of each cell
        of positive dimension passes its checks and equals the cell's
        column in ``complex.maps``.  One search per cell of dimension two
        or more, each bounded by ``cap`` steps (TooLarge beyond it)."""
        by_dim = self.critical_cells()
        if complex.basis != by_dim:
            return False
        columns: dict[CriticalCell, dict[int, int]] = {}
        for i, entries in complex.maps.items():
            rows, cols = complex.basis[i - 1], complex.basis[i]
            for (row, col), (c, _) in entries.items():
                columns.setdefault(cols[col], {})[self.cell_mask(rows[row])] = c
        return all(
            self.path_sum(cell, cap) == columns.get(cell, {})
            for cells in by_dim[1:]
            for cell in cells
        )
