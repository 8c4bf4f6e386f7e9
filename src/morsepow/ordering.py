"""Ordered generators for ideals whose minimal resolution is a tree.

For a square-free monomial ideal of projective dimension one the
complement of the facet complex is a quasi-forest.  Ordering its facets
by the leaf condition and recording, for each facet, an earlier facet
that witnesses leafness (its "joint") yields a tree on the generators
that supports the minimal free resolution of the ideal, and the scaffold
for resolving every power.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .complexes import (
    complement,
    facet_complex,
    free_vertices,
    is_leaf_order,
    quasi_forest_order,
)
from .errors import (
    InvalidJointChoice,
    NotProjectiveDimensionOne,
    NotQuasiForest,
    VerificationFailed,
)
from .monomials import Monomial, Variables, lcm, mul


class OrderedGenerators:
    """Generators m_1..m_q in leaf order, together with the complement
    facets F_i, the chosen joint of each facet, and the free-vertex sets
    F_i minus F_joint(i).

    ``joints[i] < i`` for i >= 1 and ``joints[0] == 0``.  ``permutation``
    maps new position -> original position of each generator.
    """

    __slots__ = (
        "variables",
        "generators",
        "facets",
        "joints",
        "free_sets",
        "permutation",
    )

    def __init__(self, variables, generators, facets, joints, free_sets, permutation):
        self.variables = variables
        self.generators = tuple(generators)
        self.facets = tuple(facets)
        self.joints = tuple(joints)
        self.free_sets = tuple(free_sets)
        self.permutation = tuple(permutation)

    @property
    def q(self) -> int:
        return len(self.generators)

    def power_monomial(self, vec) -> Monomial:
        """The product of the generators with the given exponents."""
        out = Monomial(())
        for m, e in zip(self.generators, vec):
            for _ in range(e):
                out = mul(out, m)
        return out

    def __repr__(self):
        return f"OrderedGenerators(q={self.q})"


@dataclass(frozen=True)
class ResolutionTree:
    """The tree supporting the minimal resolution of the ideal itself:
    vertices are the ordered generators, each edge joins a generator to
    its joint and is labeled by their lcm."""

    vertices: tuple[Monomial, ...]
    edges: tuple[tuple[int, int, Monomial], ...]


def _validate_joints(facets, joints):
    """Each joints[i] must pick an earlier facet containing every
    intersection of facets[i] with its predecessors."""
    q = len(facets)
    if len(joints) != q or joints[0] != 0:
        raise InvalidJointChoice(f"joint list must start at 0 and have length {q}")
    for i in range(1, q):
        u = joints[i]
        if not 0 <= u < i:
            raise InvalidJointChoice(f"joints[{i}]={u} is not an earlier index")
        touched = frozenset().union(*(facets[i] & facets[h] for h in range(i)))
        if not touched <= facets[u]:
            raise InvalidJointChoice(
                f"facet {i} meets its predecessors outside facet {u}"
            )


def order_generators(
    generators,
    variables: Variables,
    joints_override=None,
) -> OrderedGenerators:
    """Order the generators so the complement facets form a leaf order,
    and pick each facet's joint.

    The supplied order is kept when it already satisfies the leaf
    condition; otherwise greedy peeling chooses an order and the
    permutation is recorded.  By default the joint of facet i is the
    smallest valid index; ``joints_override`` (0-based) replaces that
    choice after validation.  Raises NotProjectiveDimensionOne when no
    leaf order exists.
    """
    generators = list(generators)
    if not generators:
        raise NotProjectiveDimensionOne("no generators given")

    delta = facet_complex(generators, variables)  # validates the input

    used = frozenset().union(*(m.support for m in generators))
    unused = [variables.name(i) for i in range(len(variables)) if i not in used]
    if unused:
        warnings.warn(
            f"variables {unused} appear in no generator; "
            "they enlarge every complement facet but do not change the resolution",
            stacklevel=2,
        )

    if len(generators) == 1:
        return OrderedGenerators(
            variables, generators, [frozenset()], [0], [frozenset()], [0]
        )

    delta_c = complement(delta)
    if is_leaf_order(delta_c, range(delta_c.q)):
        order = tuple(range(delta_c.q))
    else:
        try:
            order = quasi_forest_order(delta_c)
        except NotQuasiForest as exc:
            raise NotProjectiveDimensionOne(
                "the complement facet complex is not a quasi-forest",
                remaining_facets=exc.remaining_facets,
            ) from exc
    if not is_leaf_order(delta_c, order):
        raise VerificationFailed(f"order {order} is not a leaf order")

    facets = [delta_c.facets[i] for i in order]
    ordered = [generators[i] for i in order]

    joints = [0]
    for i in range(1, len(facets)):
        touched = frozenset().union(*(facets[i] & facets[h] for h in range(i)))
        candidates = [u for u in range(i) if touched <= facets[u]]
        if not candidates:
            raise VerificationFailed(f"leaf order validated but facet {i} has no joint")
        joints.append(min(candidates))
    if joints_override is not None:
        joints = list(joints_override)
        _validate_joints(facets, joints)

    free_sets = [frozenset()]
    for i in range(1, len(facets)):
        free = facets[i] - facets[joints[i]]
        # a leaf's free vertices relative to its joint are exactly the
        # vertices in no earlier facet
        if not free or free != free_vertices(facets[:i], facets[i]):
            raise VerificationFailed(f"facet {i} has no free vertex set of a leaf")
        free_sets.append(free)

    return OrderedGenerators(variables, ordered, facets, joints, free_sets, order)


def resolution_tree(og: OrderedGenerators) -> ResolutionTree:
    """Edges (i, joint(i)) for i >= 1, labeled by lcm(m_i, m_joint(i))."""
    edges = tuple(
        (i, og.joints[i], lcm(og.generators[i], og.generators[og.joints[i]]))
        for i in range(1, og.q)
    )
    return ResolutionTree(og.generators, edges)


def check_pd1(generators, variables: Variables):
    """(True, witness) when the ideal has projective dimension at most
    one, else (False, None)."""
    try:
        return True, order_generators(generators, variables)
    except NotProjectiveDimensionOne:
        return False, None
