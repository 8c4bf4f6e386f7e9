"""Assemble the minimal free resolution of I**r and its invariants.

The chain complex has one basis element per critical cell, labeled by
the cell's lcm monomial; differentials carry (integer coefficient,
monomial shift) entries.  Because every entry's shift is forced by the
row and column labels, well-formedness and strand acyclicity reduce to
exact integer linear algebra, done over the rationals or a prime field.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd
from operator import le

from .errors import VerificationFailed
from .matching import TaylorMatching
from .monomials import ONE, Monomial, Variables, format_monomial
from .morse import CriticalCell, MorseComplex, closure_facets
from .ordering import OrderedGenerators, order_generators
from .powers import PowerBasis


@dataclass
class ChainComplex:
    """Bases and differentials of the resolution of I**r.

    ``basis[i]`` lists the degree-i critical cells, ``labels[i]`` their
    lcm monomials, and ``maps[i]`` (for i >= 1) the sparse differential
    from degree i to degree i-1 as {(row, col): (coefficient, shift)}.
    """

    og: OrderedGenerators
    r: int
    basis: list[list[CriticalCell]]
    labels: list[list[Monomial]]
    maps: dict[int, dict[tuple[int, int], tuple[int, Monomial]]]
    # (labels it was computed from, strand_degrees of them)
    _strand_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def variables(self) -> Variables:
        return self.og.variables

    @property
    def length(self) -> int:
        return len(self.basis) - 1

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.basis)


def build_resolution(
    generators,
    r: int,
    variables: Variables | None = None,
    joints_override=None,
    og: OrderedGenerators | None = None,
) -> ChainComplex:
    """Build the minimal free resolution of I**r for an ideal of
    projective dimension at most one.

    ``generators`` may be monomials (with ``variables``) or an already
    ordered structure can be passed via ``og``.  Raises
    NotProjectiveDimensionOne when the ideal does not qualify.

    Each column of the differential is the closed-form cube boundary
    of its cell (``MorseComplex.cube_boundary``); the build walks no
    gradient flow.  The flow and its path sums are the oracle that
    ``MorseComplex.paths_match_closure`` compares with these maps.
    """
    if r < 1:
        raise ValueError("the power r must be at least 1")
    if og is None:
        og = order_generators(generators, variables, joints_override)
    morse = MorseComplex(TaylorMatching(PowerBasis(og, r)))
    basis = morse.critical_cells()
    labels = [[morse.cell_lcm(c) for c in cells] for cells in basis]
    maps: dict[int, dict[tuple[int, int], tuple[int, Monomial]]] = {}
    for i in range(1, len(basis)):
        index = {cell: row for row, cell in enumerate(basis[i - 1])}
        entries: dict[tuple[int, int], tuple[int, Monomial]] = {}
        for col, cell in enumerate(basis[i]):
            for sub, coeff, shift in morse.cube_boundary(cell):
                entries[(index[sub], col)] = (coeff, shift)
        maps[i] = entries
    return ChainComplex(og, r, basis, labels, maps)


@dataclass
class BettiTable:
    """Total and multigraded Betti numbers of the resolution."""

    totals: tuple[int, ...]
    multigraded: dict[tuple[int, Monomial], int]
    variables: Variables = field(repr=False)

    def to_json(self) -> dict:
        return {
            "total": list(self.totals),
            "multigraded": [
                {"i": i, "m": format_monomial(m, self.variables), "count": c}
                for (i, m), c in sorted(self.multigraded.items())
            ],
        }

    def render(self) -> str:
        """Text grid in the usual Betti-table layout: column i, row j-i
        where j is the total degree of the label."""
        if not self.totals:
            return "(empty)"
        width = len(self.totals)
        rows: dict[int, list[int]] = {}
        for (i, m), c in self.multigraded.items():
            rows.setdefault(m.degree - i, [0] * width)[i] += c
        lo, hi = min(rows), max(rows)
        cols = [max(4, len(str(t)) + 1) for t in self.totals]
        head = "      " + "".join(f"{i:>{cols[i]}}" for i in range(width))
        total = "total:" + "".join(f"{t:>{cols[i]}}" for i, t in enumerate(self.totals))
        lines = [head, total]
        for d in range(lo, hi + 1):
            row = rows.get(d, [0] * width)
            cells = "".join(
                f"{str(c) if c else '.':>{cols[i]}}" for i, c in enumerate(row)
            )
            lines.append(f"{d:>5}:" + cells)
        return "\n".join(lines)


def betti(complex: ChainComplex) -> BettiTable:
    multigraded: dict[tuple[int, Monomial], int] = {}
    for i, labels in enumerate(complex.labels):
        for m in labels:
            key = (i, m)
            multigraded[key] = multigraded.get(key, 0) + 1
    return BettiTable(complex.ranks(), multigraded, complex.variables)


def betti_closed_form(q: int, r: int) -> tuple[int, ...]:
    """Rank in degree i: choose i of the slots 1..q-1, then a weight-r
    vector positive on them, C(q-1, i) * C(r-i+q-1, q-1)."""
    if q < 1:
        raise ValueError("need q >= 1")
    return tuple(
        comb(q - 1, i) * comb(r - i + q - 1, q - 1) for i in range(min(r, q - 1) + 1)
    )


def pd_formula(q: int, r: int) -> int:
    """Projective dimension of I**r: q-1 once r reaches q-1, else r."""
    if q < 1 or r < 1:
        raise ValueError("need q >= 1 and r >= 1")
    return q - 1 if r >= q - 1 else r


def pd_computed(complex: ChainComplex) -> int:
    """Largest homological degree with a nonzero free module."""
    top = 0
    for i, cells in enumerate(complex.basis):
        if cells:
            top = i
    return top


def dstab(q: int) -> int:
    """The power at which the projective dimensions (equivalently the
    depths) of I**r stabilize."""
    if q < 1:
        raise ValueError("need q >= 1")
    return max(q - 1, 0) if q > 1 else 0


def pd_sequence(q: int, up_to: int | None = None) -> tuple[int, ...]:
    up_to = q if up_to is None else up_to
    return tuple(pd_formula(q, r) for r in range(1, up_to + 1))


# ----------------------------------------------------------------------
# verification oracles


def verify_minimality(complex: ChainComplex) -> bool:
    """Every differential shift is a non-unit monomial, and no attached
    cell one dimension down shares its label with the cell above."""
    for entries in complex.maps.values():
        for _, shift in entries.values():
            if shift.is_one():
                return False
    label_of = {
        c: m
        for cells, labels in zip(complex.basis, complex.labels)
        for c, m in zip(cells, labels)
    }
    joints = complex.og.joints
    # an attached cell missing from the complex fails the check as well
    return not any(
        label_of.get(sub) in (None, label)
        for cell, label in label_of.items()
        for sub in closure_facets(cell, joints)
    )


def verify_d2(complex: ChainComplex) -> bool:
    """Consecutive differentials compose to zero.

    Shifts are determined by the row/column labels, so the symbolic
    composition vanishes exactly when the integer coefficient matrices
    multiply to zero.
    """
    for i in range(2, complex.length + 1):
        lower = complex.maps[i - 1]
        upper = complex.maps[i]
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (row, col), (c, _) in upper.items():
            by_col.setdefault(col, []).append((row, c))
        by_mid: dict[int, list[tuple[int, int]]] = {}
        for (row, mid), (c, _) in lower.items():
            by_mid.setdefault(mid, []).append((row, c))
        for col, mids in by_col.items():
            acc: dict[int, int] = {}
            for mid, c1 in mids:
                for row, c2 in by_mid.get(mid, ()):
                    acc[row] = acc.get(row, 0) + c1 * c2
            if any(v != 0 for v in acc.values()):
                return False
    return True


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve primes as bases, which is
    deterministic for every n below 3.3 * 10**24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_field_char(char: int) -> None:
    """Raise ValueError unless ``char`` is 0 (the rationals) or a prime."""
    if char != 0 and not _is_prime(char):
        raise ValueError(f"field characteristic must be 0 or a prime, not {char}")


def _rank(vectors, char: int) -> int:
    """Rank over Q (char 0) or the prime field GF(char) of sparse integer
    vectors, each an iterable of (index, value) pairs with distinct
    indices.

    The vectors are reduced one at a time against the pivot rows kept so
    far, each pivot row owning its leading index.  Over GF(2) a vector is
    an int bitset and reduction is XOR.  Over GF(p) it is an
    {index: residue} dict with pivot rows scaled to a leading 1.  Over Q
    it is an {index: int} dict reduced fraction-free, with the gcd of its
    entries divided out after every step, so no fractions appear.
    """
    pivots: dict = {}
    if char == 2:
        for vec in vectors:
            bits = 0
            for k, x in vec:
                if x & 1:
                    bits ^= 1 << k
            while bits:
                lead = bits.bit_length() - 1
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = bits
                    break
                bits ^= pivot
        return len(pivots)
    for vec in vectors:
        row = {k: x % char if char else x for k, x in vec}
        row = {k: x for k, x in row.items() if x}
        while row:
            if not char:
                g = gcd(*row.values())
                if g != 1:
                    row = {k: x // g for k, x in row.items()}
            lead = min(row)
            a = row[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                if char:
                    inv = pow(a, -1, char)
                    row = {k: x * inv % char for k, x in row.items()}
                pivots[lead] = row
                break
            if not char:
                b = pivot[lead]
                g = gcd(a, b)
                a, b = a // g, b // g
                if b != 1:
                    row = {k: x * b for k, x in row.items()}
            for k, x in pivot.items():
                y = row.get(k, 0) - a * x
                if char:
                    y %= char
                if y:
                    row[k] = y
                else:
                    del row[k]
    return len(pivots)


def _dense(m: Monomial, n: int) -> tuple[int, ...]:
    """The exponent tuple of ``m`` over variables 0..n-1."""
    e = [0] * n
    for i, x in m.exps:
        e[i] = x
    return tuple(e)


def _width(groups) -> int:
    """How many dense exponent slots the monomials in ``groups`` need."""
    return 1 + max((i for ms in groups for m in ms for i, _ in m.exps), default=-1)


def _lcm_closure(atoms: set) -> set:
    """All lcms of nonempty sets of atoms, as dense exponent tuples.

    Every lcm of k+1 atoms is the lcm of an lcm of k atoms with one more
    atom, so each new frontier is joined with the atoms only, never with
    the whole growing closure."""
    closed, frontier = set(atoms), atoms
    while frontier:
        frontier = {tuple(map(max, f, g)) for f in frontier for g in atoms} - closed
        closed |= frontier
    return closed


def strand_degrees(complex: ChainComplex) -> list[Monomial]:
    """All labels of the resolution, closed under pairwise lcm: the
    multidegrees where the label subcomplex can change.

    The vertex labels generate the closure of a built resolution, whose
    every label is the lcm of a Taylor face's generators; a label outside
    their closure (a hand-built complex may have one) is joined in too."""
    n = _width(complex.labels)
    labels = {_dense(m, n) for ms in complex.labels for m in ms}
    atoms = {_dense(m, n) for m in complex.labels[0]} if complex.labels else set()
    degrees = _lcm_closure(atoms)
    if not labels <= degrees:
        degrees = _lcm_closure(atoms | (labels - degrees))
    return sorted(map(Monomial.from_exponents, degrees))


def _strand_degrees_once(complex: ChainComplex) -> list[Monomial]:
    """``strand_degrees`` of the complex, computed once for every field
    checked while its labels stay the same."""
    key = tuple(map(tuple, complex.labels))
    cached = complex._strand_cache
    if cached is None or cached[0] != key:
        cached = complex._strand_cache = (key, strand_degrees(complex))
    return cached[1]


def _taylor_boundary(face, rows):
    """Boundary column of a Taylor face: the facet dropping position p
    gets the sign (-1)**p."""
    col = []
    for p in range(len(face)):
        row = rows.get(face[:p] + face[p + 1 :])
        if row is None:
            raise VerificationFailed(
                f"a facet of the Taylor face {face} is missing from its "
                "lcm-bounded subcomplex"
            )
        col.append((row, -1 if p % 2 else 1))
    return col


def taylor_betti(generators, char: int = 0) -> dict[tuple[int, Monomial], int]:
    """Multigraded Betti numbers of any minimally generated monomial
    ideal, computed classically: the Betti number in degree (i, m) is
    the reduced homology rank, one dimension down, of the subcomplex of
    Taylor faces whose label strictly divides m.

    Exponential in the number of generators and fully independent of the
    matching machinery; a desk-scale oracle for cross-checking the Morse
    resolution (and for measuring pd of ideals outside its scope).
    Ranks are exact over the chosen field: Betti numbers can depend on
    the characteristic, so no other field stands in for it.
    """
    check_field_char(char)
    gens = list(generators)
    q = len(gens)
    n = _width([gens])
    dense = [_dense(g, n) for g in gens]
    labels: dict[tuple[int, ...], tuple[int, ...]] = {(): (0,) * n}
    for k in range(1, q + 1):
        for sub in combinations(range(q), k):
            labels[sub] = tuple(map(max, labels[sub[:-1]], dense[sub[-1]]))
    out: dict[tuple[int, Monomial], int] = {}
    for m in sorted({Monomial.from_exponents(e) for e in labels.values()} - {ONE}):
        top = _dense(m, n)
        # a face's label divides m exactly when each of its generators does
        below = [g for g in range(q) if all(map(le, dense[g], top))]
        # sizes[k]: the faces of k generators whose label strictly divides m
        sizes: list[list[tuple[int, ...]]] = [[()]]
        for k in range(1, len(below) + 1):
            faces = [f for f in combinations(below, k) if labels[f] != top]
            if not faces:
                break  # every face of a face below m is below m
            sizes.append(faces)
        ranks = [0]
        for k in range(1, len(sizes)):
            rows = {f: t for t, f in enumerate(sizes[k - 1])}
            ranks.append(_rank((_taylor_boundary(f, rows) for f in sizes[k]), char))
        ranks.append(0)
        # homological degree i reads the faces of i generators (dimension i-1)
        for i, faces in enumerate(sizes):
            h = len(faces) - ranks[i] - ranks[i + 1]
            if h:
                out[(i, m)] = h
    return out


def _strand_is_acyclic(labels, cols, degree: tuple[int, ...], char: int) -> bool:
    """Reduced homology of the subcomplex of cells whose label divides
    the given degree, with the empty cell adjoined, must vanish.

    ``labels[i]`` holds the dense exponent tuples of the degree-i labels
    and ``cols[i][j]`` the boundary of cell j of degree i as (row,
    coefficient) pairs; both are built once per complex.
    """
    keep = [{j for j, e in enumerate(es) if all(map(le, e, degree))} for es in labels]
    if not keep[0]:
        return False  # the empty degree supports no acyclic augmented complex
    # the restricted boundary maps, degree i -> i-1, with the augmentation
    # (every vertex maps to the empty cell with coefficient 1) as chain[0]
    chain = [{j: [(0, 1)] for j in keep[0]}]
    for i in range(1, len(keep)):
        rows = keep[i - 1]
        chain.append({j: [(r, c) for r, c in cols[i][j] if r in rows] for j in keep[i]})
    # the restriction must still be a complex, exactly over Z
    for lower, upper in zip(chain, chain[1:]):
        for col in upper.values():
            acc: dict[int, int] = {}
            for mid, c1 in col:
                for row, c2 in lower[mid]:
                    acc[row] = acc.get(row, 0) + c1 * c2
            if any(acc.values()):
                return False

    def exact(p: int) -> bool:
        # reduced homology in degree i: dim ker d_i - rank d_{i+1}; the
        # augmentation has rank 1 and so is onto the empty cell
        below = 1
        for i in range(len(chain)):
            above = _rank(chain[i + 1].values(), p) if i + 1 < len(chain) else 0
            if len(keep[i]) != below + above:
                return False
            below = above
        return True

    # Over a Z-complex, rk_2 <= rk_Q for every map and rk_Q(d_i) +
    # rk_Q(d_{i+1}) <= dims[i], so a GF(2)-exact strand is Q-exact too;
    # exact rational elimination runs only when the GF(2) verdict fails.
    return (char == 0 and exact(2)) or exact(char)


def verify_strand_acyclicity(complex: ChainComplex, field_char: int = 0) -> bool:
    """Check every multidegree strand of the resolution is exact by
    computing reduced homology of label subcomplexes over the chosen
    field (0 means the rationals, otherwise a prime)."""
    check_field_char(field_char)
    degrees = _strand_degrees_once(complex)
    n = _width(complex.labels)
    labels = [[_dense(m, n) for m in ms] for ms in complex.labels]
    cols: list[list[list[tuple[int, int]]]] = [[[] for _ in ms] for ms in labels]
    for i, entries in complex.maps.items():
        for (row, col), (c, _) in entries.items():
            cols[i][col].append((row, c))

    return all(
        _strand_is_acyclic(labels, cols, _dense(m, n), field_char) for m in degrees
    )
