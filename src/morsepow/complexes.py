"""Simplicial complexes given by their facets.

Leaf/joint detection, quasi-forest recognition by greedy leaf peeling,
the complement complex, and the facet complex of a square-free
ideal.  Facets are frozensets of variable indices.
"""

from __future__ import annotations

from .errors import (
    EmptyComplementFacet,
    NotMinimalGenerating,
    NotQuasiForest,
    NotSquarefree,
    ParseError,
)
from .monomials import Variables, format_monomial, is_squarefree


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


def facet_complex(generators, variables: Variables) -> SimplicialComplex:
    """The complex whose facets are the supports of the generators."""
    # the unit divides every generator, so it is named before any
    # divisibility failure
    if any(m.is_one() for m in generators):
        raise ParseError("the unit monomial 1 generates no proper ideal")
    for m in generators:
        if not is_squarefree(m):
            raise NotSquarefree(
                f"generator {format_monomial(m, variables)} is not square-free"
            )
    # for square-free monomials divisibility is containment of supports
    supports = [m.support for m in generators]
    for i, m in enumerate(generators):
        for j, m2 in enumerate(generators):
            if i != j and supports[i] <= supports[j]:
                raise NotMinimalGenerating(
                    f"generator {format_monomial(m, variables)} divides "
                    f"generator {format_monomial(m2, variables)}"
                )
    return SimplicialComplex(variables, supports)


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


def leaf_joints(others, facet: frozenset[int]) -> tuple[int, ...]:
    """Positions in ``others`` of the facets containing every
    intersection of ``facet`` with ``others``.

    ``facet`` is a leaf of the complex spanned by it and ``others`` iff
    ``others`` is empty or some position is returned; each returned
    facet is a joint of the leaf.
    """
    touched = frozenset().union(*(facet & g for g in others))
    return tuple(k for k, g in enumerate(others) if touched <= g)


def prefix_joints(facets) -> list[tuple[int, ...]]:
    """``leaf_joints`` of each facet among its predecessors."""
    return [leaf_joints(facets[:i], facets[i]) for i in range(len(facets))]


def quasi_forest_order(delta: SimplicialComplex) -> tuple[int, ...]:
    """An ordering of the facet indices witnessing the quasi-forest
    property, found by reverse greedy leaf peeling.

    Repeatedly remove a leaf of the current complex (ties broken toward
    the largest original index) and reverse the removal order.  Raises
    NotQuasiForest when some stage has no leaf.
    """
    remaining = list(range(delta.q))
    peeled = []
    while len(remaining) > 1:
        facets = [delta.facets[i] for i in remaining]
        for k in reversed(range(len(facets))):
            if leaf_joints(facets[:k] + facets[k + 1 :], facets[k]):
                peeled.append(remaining.pop(k))
                break
        else:
            raise NotQuasiForest(
                "no facet of the remaining complex is a leaf",
                remaining_facets=[delta.facet_names(i) for i in remaining],
            )
    return tuple(reversed(peeled + remaining))


def is_leaf_order(delta: SimplicialComplex, order) -> bool:
    """Independent validator: each facet must be a leaf of the subcomplex
    spanned by it and its predecessors."""
    order = list(order)
    if sorted(order) != list(range(delta.q)):
        return False
    return all(prefix_joints([delta.facets[i] for i in order])[1:])


def free_vertices(prefix_facets, facet: frozenset[int]) -> frozenset[int]:
    """Vertices of ``facet`` lying in none of the prefix facets."""
    out = frozenset(facet)
    for f in prefix_facets:
        out -= f
    return out
