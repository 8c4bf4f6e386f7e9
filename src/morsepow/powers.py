"""Exponent-vector combinatorics for the generators of I**r.

A generator of I**r is m_1^a_1 * ... * m_q^a_q for an exponent vector a
with |a| = r; for projective dimension one the expansion is injective,
so vectors stand in for generators everywhere.  The vectors are totally
ordered by colex order (compare at the largest differing index), and the
basic move shifts one unit of exponent from a slot to its joint.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .errors import DuplicateGenerator, LengthMismatch, NotInSupport
from .monomials import Monomial
from .ordering import OrderedGenerators

NEG_INF = float("-inf")


def weak_compositions(r: int, q: int):
    """All length-q tuples of non-negative integers summing to r, in
    lexicographic order.

    Stars and bars: the q-1 bars sit at distinct positions among r+q-1,
    each part counts the stars between two bars, and bar positions in
    lexicographic order give the parts in lexicographic order."""
    if q < 1:
        raise ValueError("need at least one slot")
    for bars in combinations(range(r + q - 1), q - 1):
        out, prev = [], -1
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(r + q - 2 - prev)
        yield tuple(out)


def colex_key(a):
    return tuple(reversed(a))


def last_disagreement(a, b):
    """The largest index where a and b differ; NEG_INF when a == b."""
    if len(a) != len(b):
        raise LengthMismatch(f"vectors {a} and {b} have different lengths")
    for j in range(len(a) - 1, -1, -1):
        if a[j] != b[j]:
            return j
    return NEG_INF


def support(a) -> frozenset[int]:
    return frozenset(j for j, e in enumerate(a) if e)


def _check_support(a, j: int) -> None:
    if not (0 <= j < len(a) and a[j] > 0):
        raise NotInSupport(f"slot {j} is not in the support of {a}")


def move_to_joint(a, j: int, joints) -> tuple[int, ...]:
    """Shift one unit of exponent from slot j to slot joints[j].

    The move at slot 0 is the identity (slot 0 is its own joint); every
    other move is strictly colex-decreasing.
    """
    _check_support(a, j)
    out = list(a)
    out[j] -= 1
    out[joints[j]] += 1
    return tuple(out)


def move_many(a, slots, joints) -> tuple[int, ...]:
    """Apply the moves at a set of distinct support slots at once."""
    out = list(a)
    for j in slots:
        _check_support(a, j)
        out[j] -= 1
        out[joints[j]] += 1
    return tuple(out)


def descent_family(a, joints) -> frozenset[tuple[int, ...]]:
    """The vector together with each of its single moves."""
    fam = {tuple(a)}
    for j in support(a):
        fam.add(move_to_joint(a, j, joints))
    return frozenset(fam)


def power_vectors(q: int, r: int) -> list[tuple[int, ...]]:
    """All exponent vectors of weight r, sorted in decreasing colex
    order, so the first entry is the colex-largest."""
    return sorted(weak_compositions(r, q), key=colex_key, reverse=True)


def uniqueness_check(og: OrderedGenerators, r: int) -> bool:
    """Verify that expansion is injective on the weight-r vectors."""
    seen: dict[Monomial, tuple] = {}
    for a in weak_compositions(r, og.q):
        m = og.power_monomial(a)
        if m in seen:
            raise DuplicateGenerator(
                f"vectors {seen[m]} and {a} expand to the same monomial {m}"
            )
        seen[m] = a
    return True


class PowerBasis:
    """The generators of I**r, indexed by their rank in decreasing colex
    order.  Smaller index means colex-larger vector, so the largest
    vertex of a sorted face is the face's first entry.
    """

    def __init__(self, og: OrderedGenerators, r: int):
        if r < 0:
            raise ValueError("power must be non-negative")
        self.og = og
        self.r = r
        self.vectors: list[tuple[int, ...]] = power_vectors(og.q, r)
        self.index_of = {a: i for i, a in enumerate(self.vectors)}
        self.exponents = self._exponents()
        if len(set(self.exponents)) != len(self.exponents):
            uniqueness_check(og, r)  # raises DuplicateGenerator with a witness
        self._families: dict[int, frozenset[int]] = {}
        self._moves: dict[tuple[int, int], int] = {}

    def _exponents(self) -> list[tuple[int, ...]]:
        """The dense exponent tuple, over every variable, of each
        generator.  Generator i is the product of the variables outside
        its complement facet F_i, so in m^a the exponent of v is r minus
        the a_i of the facets holding v."""
        facets = self.og.facets
        n = len(self.og.variables)
        out = []
        for a in self.vectors:
            x = [self.r] * n
            for f, e in zip(facets, a):
                if e:
                    for v in f:
                        x[v] -= e
            out.append(tuple(x))
        return out

    @cached_property
    def monomials(self) -> list[Monomial]:
        """The generators as sparse monomials, made on first use (the
        build reads only the dense exponents)."""
        return [Monomial.from_exponents(x) for x in self.exponents]

    @property
    def size(self) -> int:
        return len(self.vectors)

    def family_indices(self, i: int) -> frozenset[int]:
        """Indices of the descent family of vector i (the vector and its
        single moves)."""
        fam = self._families.get(i)
        if fam is None:
            fam = frozenset(
                self.index_of[v]
                for v in descent_family(self.vectors[i], self.og.joints)
            )
            self._families[i] = fam
        return fam

    def move_index(self, i: int, j: int) -> int:
        """Index of the single move of vector i at support slot j."""
        key = (i, j)
        out = self._moves.get(key)
        if out is None:
            out = self.index_of[move_to_joint(self.vectors[i], j, self.og.joints)]
            self._moves[key] = out
        return out
