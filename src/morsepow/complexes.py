"""Simplicial complexes presented by their facets.

Leaf/joint detection, quasi-forest recognition by greedy leaf peeling,
the complement complex, and the facet complex of a square-free
ideal.  Facets are frozensets of variable indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EmptyComplementFacet,
    NotMinimalGenerating,
    NotQuasiForest,
    NotSquarefree,
    ParseError,
)
from .monomials import Variables, divides, is_squarefree


class SimplicialComplex:
    """A complex given by its facets: nonempty, pairwise incomparable
    subsets of the vertex set."""

    __slots__ = ("variables", "facets")

    def __init__(self, variables: Variables, facets):
        facets = tuple(frozenset(f) for f in facets)
        n = len(variables)
        for f in facets:
            if not f:
                raise ValueError("facets must be nonempty")
            if any(v < 0 or v >= n for v in f):
                raise ValueError("facet vertex outside the declared variable list")
        for i, f in enumerate(facets):
            for j, g in enumerate(facets):
                if i != j and f <= g:
                    raise ValueError(f"facet {set(f)} is contained in facet {set(g)}")
        self.variables = variables
        self.facets = facets

    @property
    def q(self) -> int:
        return len(self.facets)

    def facet_names(self, i: int) -> tuple[str, ...]:
        return tuple(sorted(self.variables.name(v) for v in self.facets[i]))

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.variables == other.variables
            and self.facets == other.facets
        )

    def __repr__(self):
        parts = ["{" + ",".join(self.facet_names(i)) + "}" for i in range(self.q)]
        return f"SimplicialComplex<{', '.join(parts)}>"


@dataclass(frozen=True)
class LeafCertificate:
    """Joint data for one facet: ``joint_indices`` lists every other facet
    that contains all intersections of ``leaf_index`` with the rest."""

    leaf_index: int
    joint_indices: tuple[int, ...]
    only_facet: bool

    @property
    def is_leaf(self) -> bool:
        return self.only_facet or bool(self.joint_indices)


def facet_complex(generators, variables: Variables) -> SimplicialComplex:
    """The complex whose facets are the supports of the generators."""
    for m in generators:
        if not is_squarefree(m):
            raise NotSquarefree(f"generator {m} is not square-free")
    for i, m in enumerate(generators):
        for j, m2 in enumerate(generators):
            if i != j and divides(m, m2):
                raise NotMinimalGenerating(
                    f"generator {m} divides generator {m2}"
                )
    if any(m.is_one() for m in generators):
        raise ParseError("the unit monomial 1 generates no proper ideal")
    return SimplicialComplex(variables, [m.support for m in generators])


def complement(delta: SimplicialComplex) -> SimplicialComplex:
    """Facets become their complements inside the fixed vertex set.

    Complements of distinct inclusion-maximal facets are automatically
    incomparable, so no re-minimalization happens.
    """
    everything = frozenset(range(len(delta.variables)))
    facets = []
    for f in delta.facets:
        c = everything - f
        if not c:
            raise EmptyComplementFacet(
                "a facet equals the whole vertex set; its complement is empty"
            )
        facets.append(c)
    return SimplicialComplex(delta.variables, facets)


def find_joints(delta: SimplicialComplex, facet_index: int) -> LeafCertificate:
    """All valid joints of one facet.

    F is a leaf iff it is the only facet or some other facet G contains
    F's intersection with every remaining facet; every such G is
    reported.
    """
    f = delta.facets[facet_index]
    others = [i for i in range(delta.q) if i != facet_index]
    if not others:
        return LeafCertificate(facet_index, (), True)
    touched = frozenset().union(*(f & delta.facets[i] for i in others))
    joints = tuple(i for i in others if touched <= delta.facets[i])
    return LeafCertificate(facet_index, joints, False)


def quasi_forest_order(delta: SimplicialComplex) -> tuple[int, ...]:
    """An ordering of the facet indices witnessing the quasi-forest
    property, found by reverse greedy leaf peeling.

    Repeatedly remove a leaf of the current complex (ties broken toward
    the largest original index) and reverse the removal order.  Raises
    NotQuasiForest when some stage has no leaf.
    """
    remaining = list(range(delta.q))
    peeled = []
    while remaining:
        if len(remaining) == 1:
            peeled.append(remaining.pop())
            break
        sub = SimplicialComplex(delta.variables, [delta.facets[i] for i in remaining])
        leaves = [
            remaining[k]
            for k in range(len(remaining))
            if find_joints(sub, k).is_leaf
        ]
        if not leaves:
            raise NotQuasiForest(
                "no facet of the remaining complex is a leaf",
                remaining_facets=[delta.facet_names(i) for i in remaining],
            )
        pick = max(leaves)
        remaining.remove(pick)
        peeled.append(pick)
    return tuple(reversed(peeled))


def is_leaf_order(delta: SimplicialComplex, order) -> bool:
    """Independent validator: each facet must be a leaf of the subcomplex
    spanned by it and its predecessors."""
    order = list(order)
    if sorted(order) != list(range(delta.q)):
        return False
    for i in range(1, len(order)):
        sub = SimplicialComplex(
            delta.variables, [delta.facets[j] for j in order[: i + 1]]
        )
        if not find_joints(sub, i).is_leaf:
            return False
    return True


def free_vertices(prefix_facets, facet: frozenset[int]) -> frozenset[int]:
    """Vertices of ``facet`` lying in none of the prefix facets."""
    out = frozenset(facet)
    for f in prefix_facets:
        out -= f
    return out
