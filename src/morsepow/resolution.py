"""Assemble the minimal free resolution of I**r and its invariants.

The chain complex has one basis element per critical cell, labeled by
the cell's lcm monomial; differentials carry (integer coefficient,
monomial shift) entries.  Once every entry's shift is checked to be its
column label over its row label, well-formedness and strand acyclicity
reduce to exact integer linear algebra, done over the rationals or a
prime field.  No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from math import comb, gcd
from operator import or_

from .errors import VerificationFailed
from .matching import TaylorMatching
from .monomials import (
    Monomial,
    Variables,
    bit_positions,
    format_monomial,
    unary_codes,
    unary_monomial,
    variable_span,
)
from .morse import CriticalCell, MorseComplex
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
    """Projective dimension of I**r: q-1 once r is at least q-1, else r."""
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
    """The definition: no nonzero entry of a differential has a unit
    shift."""
    return not any(
        c and shift.is_one() for entries in complex.maps.values() for c, shift in entries.values()
    )


def verify_d2(complex: ChainComplex) -> bool:
    """Consecutive differentials compose to zero.

    Every shift is first checked to be the quotient of its column label
    by its row label (``_labels_respected``); then the symbolic
    composition vanishes exactly when the integer coefficient matrices
    multiply to zero.
    """
    return _labels_respected(complex) and _is_complex(_columns(complex))


def _labels_respected(complex: ChainComplex) -> bool:
    """Every stored entry's shift times its row label is its column label.

    Each label and each distinct shift is packed once into an int, one
    field per variable of ``(2 * e).bit_length()`` bits for the largest
    exponent e, so adding two exponents never carries into the next
    field and each product is one integer add."""
    shifts = {s.exps for es in complex.maps.values() for _, s in es.values()}
    exps = [m.exps for ms in complex.labels for m in ms] + list(shifts)
    w = (2 * max((x for e in exps for _, x in e), default=0)).bit_length()

    def pack(exps) -> int:
        return sum(x << v * w for v, x in exps)

    labels = [[pack(m.exps) for m in ms] for ms in complex.labels]
    codes = {e: pack(e) for e in shifts}
    return all(
        codes[s.exps] + labels[i - 1][row] == labels[i][col]
        for i, entries in complex.maps.items()
        for (row, col), (_, s) in entries.items()
    )


def _columns(complex: ChainComplex) -> list[list[list[tuple[int, int]]]]:
    """``cols[i][j]``: the boundary of cell j of degree i as (row,
    coefficient) pairs."""
    cols: list[list[list[tuple[int, int]]]] = [[[] for _ in cells] for cells in complex.basis]
    for i, entries in complex.maps.items():
        for (row, col), (c, _) in entries.items():
            cols[i][col].append((row, c))
    return cols


def _is_complex(cols) -> bool:
    """Consecutive maps of ``cols`` (laid out as by ``_columns``) compose
    to zero, exactly over Z: the boundary of each boundary vanishes."""
    for lower, upper in zip(cols, cols[1:]):
        for col in upper:
            acc: dict[int, int] = {}
            for mid, c1 in col:
                for row, c2 in lower[mid]:
                    acc[row] = acc.get(row, 0) + c1 * c2
            if any(acc.values()):
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


def _gf2_rank(vectors) -> int:
    """Rank over GF(2) of int bitsets, reduced by XOR against pivot rows
    that each own their leading bit."""
    pivots: dict[int, int] = {}
    for bits in vectors:
        while bits:
            pivot = pivots.get(lead := bits.bit_length() - 1)
            if pivot is None:
                pivots[lead] = bits
                break
            bits ^= pivot
    return len(pivots)


def _rank(vectors, char: int) -> int:
    """Rank over Q (char 0) or the prime field GF(char) of sparse integer
    vectors, each an iterable of (index, value) pairs with distinct
    indices.

    The vectors are reduced one at a time against the pivot rows kept so
    far, each pivot row owning its leading index.  Over GF(2) a vector is
    an int bitset (``_gf2_rank``).  Over GF(p) it is an
    {index: residue} dict with pivot rows scaled to a leading 1.  Over Q
    it is an {index: int} dict reduced fraction-free, with the gcd of its
    entries divided out after every step, so no fractions appear.
    """
    if char == 2:
        return _gf2_rank(sum(1 << k for k, x in vec if x & 1) for vec in vectors)
    pivots: dict = {}
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


def _lcm_closure(labels: list[list[int]]) -> set[int]:
    """All lcms of nonempty sets of the unary codes in ``labels``.  The
    vertex labels come first, and a label already in the closure adds
    nothing, so in a built resolution only the vertex labels are joined;
    a hand-built complex may have a label outside their closure."""
    closed: set[int] = set()
    for e in (e for es in labels for e in es):
        if e not in closed:
            closed |= {e | c for c in closed}
            closed.add(e)
    return closed


def strand_degrees(complex: ChainComplex) -> list[Monomial]:
    """All labels of the resolution, closed under pairwise lcm: the
    multidegrees where the label subcomplex can change.

    The vertex labels generate the closure of a built resolution, whose
    every label is the lcm of a Taylor face's generators."""
    n, (w, labels) = variable_span(complex.labels), unary_codes(complex.labels)
    return sorted(unary_monomial(d, w, n) for d in _lcm_closure(labels))


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
    n, (w, (codes,)) = variable_span([gens]), unary_codes([gens])
    labels: dict[tuple[int, ...], int] = {(): 0}
    for k in range(1, q + 1):
        for sub in combinations(range(q), k):
            labels[sub] = labels[sub[:-1]] | codes[sub[-1]]
    out: dict[tuple[int, Monomial], int] = {}
    for m, top in sorted((unary_monomial(t, w, n), t) for t in set(labels.values()) - {0}):
        # a face's label divides m exactly when each of its generators does
        below = [g for g in range(q) if not codes[g] & ~top]
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


def _strand_is_acyclic(index, keep, chars) -> dict[int, bool]:
    """Reduced homology of the cells in ``keep`` (a bitset per degree of
    the cells whose label divides one strand degree) must vanish: the
    verdict over each field in ``chars``.  Degrees are shifted up by one
    for the empty cell, which is always kept.  ``index`` holds, per
    shifted degree, the boundary columns and their odd entries as
    bitsets.  The kept cells form a subcomplex (see ``verify_strands``),
    so only ranks are computed here."""
    cols, odd = index
    cells = [bit_positions(m) for m in keep]

    def rank(k: int, p: int) -> int:
        # of the restricted map out of shifted degree k
        if p == 2:
            return _gf2_rank(odd[k][j] for j in cells[k])
        return _rank((cols[k][j] for j in cells[k]), p)

    def exact(p: int) -> bool:
        # homology vanishes in degree k when dim C_k = rk d_k + rk d_{k+1};
        # in degree 0, the empty cell, that needs a kept vertex
        ranks = [0] + [rank(k, p) for k in range(1, len(keep))] + [0]
        return all(len(c) == ranks[k] + ranks[k + 1] for k, c in enumerate(cells))

    # Over a Z-complex, rk_2 <= rk_Q for every map and rk_Q(d_i) +
    # rk_Q(d_{i+1}) <= dims[i], so a GF(2)-exact strand is Q-exact too:
    # chars 0 and 2 share one GF(2) pass, and exact rational elimination
    # runs only when it fails.
    gf2 = exact(2) if {0, 2} & set(chars) else None
    return {c: gf2 if c == 2 else (c == 0 and gf2) or exact(c) for c in chars}


def verify_strands(complex: ChainComplex, chars=(0, 2)) -> dict[int, bool]:
    """Check every multidegree strand of the resolution is exact over
    each field in ``chars`` (0 means the rationals, otherwise a prime).
    One pass over the strand degrees restricts the complex once for
    every field, and each field still gets its own exact verdict.

    Every field fails unless each shift is the quotient of its labels
    and the augmented complex is a complex over Z.  Then each row label
    divides its column label, so the cells whose labels divide a degree
    form a subcomplex, and a subcomplex of a complex is one too."""
    for char in chars:
        check_field_char(char)
    cols = [[[]]] + _columns(complex)
    for col in cols[1] if len(cols) > 1 else ():
        col.append((0, 1))  # the augmentation
    if not (_labels_respected(complex) and _is_complex(cols)):
        return dict.fromkeys(chars, False)
    n, (w, labels) = variable_span(complex.labels), unary_codes(complex.labels)
    labels = [[0]] + labels  # the empty cell, whose label 1 divides every degree
    # above[k][v*w + x]: the cells of shifted degree k whose exponent of v
    # exceeds x, which is that bit of their label codes
    above = [
        [sum(1 << j for j, e in enumerate(es) if e >> b & 1) for b in range(n * w)]
        for es in labels
    ]
    odd = [[sum(1 << r for r, c in col if c & 1) for col in cs] for cs in cols]
    index, mask = (cols, odd), (1 << w) - 1
    verdicts = dict.fromkeys(chars, True)
    for degree in _lcm_closure(labels[1:]):
        pending = [c for c, ok in verdicts.items() if ok]
        if not pending:
            break
        # a label fails to divide the degree exactly when, in some field
        # v, it has the first bit above the degree's exponent of v
        cuts = [
            b + x for b in range(0, n * w, w) if (x := (degree >> b & mask).bit_length()) < w
        ]
        keep = [
            (1 << len(es)) - 1 & ~reduce(or_, (sliced[b] for b in cuts), 0)
            for es, sliced in zip(labels, above)
        ]
        verdicts.update(_strand_is_acyclic(index, keep, pending))
    return verdicts


def verify_strand_acyclicity(complex: ChainComplex, field_char: int = 0) -> bool:
    """``verify_strands`` over the one field ``field_char``."""
    return verify_strands(complex, (field_char,))[field_char]
