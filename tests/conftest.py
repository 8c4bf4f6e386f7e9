import os
import pathlib
import warnings
from itertools import combinations
from math import comb

import pytest
from hypothesis import strategies as st

from morsepow import (
    NEG_INF,
    Monomial,
    Variables,
    last_disagreement,
    order_generators,
    parse_generators,
)
from morsepow.matching import UNMATCHED


ROOT = pathlib.Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """The environment with the checkout's src/ first on PYTHONPATH, for
    subprocesses that import the library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def exact_quotient(m1, m2) -> Monomial:
    """m1 / m2 exponentwise; ``Monomial.from_dict`` rejects the negative
    exponent left when m2 does not divide m1."""
    d = dict(m1.exps)
    for i, e in m2.exps:
        d[i] = d.get(i, 0) - e
    return Monomial.from_dict(d)


def face_stats_reference(matching, face):
    """The top vertex, level and pivot of a nonempty tuple face, read off
    their definition: the level is the largest last disagreement of the
    top vector with a vertex outside its descent family (NEG_INF when
    there is none, and then the pivot is UNMATCHED), and the pivot is
    the top vector's move at the level.  ``TaylorMatching.pivot`` must
    agree with it."""
    basis = matching.basis
    top = face[0]
    family = basis.family_indices(top)
    outside = [v for v in face if v not in family]
    if not outside:
        return top, NEG_INF, UNMATCHED
    a = basis.vectors[top]
    level = max(last_disagreement(a, basis.vectors[v]) for v in outside)
    return top, level, basis.move_index(top, level)


def ideal(texts, var_names=None):
    variables = Variables(var_names) if var_names else None
    return parse_generators(texts, variables)


def ordered(gens, variables, joints=None):
    """order_generators without the unused-variable warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return order_generators(gens, variables, joints_override=joints)


# (q, r) with at most 10 power generators: q = 4, r = 3 has 20, and the
# Taylor oracle's 2**20 faces are far beyond a unit test
TAYLOR_SHAPES = [(q, r) for q in range(2, 5) for r in range(1, 4) if comb(q + r - 1, r) <= 10]
# every tree with at most five edges, up to the cube
LABEL_SHAPES = [(q, r) for q in range(2, 6) for r in range(1, 4)]


@st.composite
def tree_ideals(draw, shapes=TAYLOR_SHAPES):
    """A random labelled tree on q+1 vertices, as the ideal whose complement
    facets are its edges, with the generators in a random order; maybe
    one more variable in no generator, and any valid joints.  Returns the
    ordered generators and the power r."""
    q, r = draw(st.sampled_from(shapes))
    parents = [draw(st.integers(0, k - 1)) for k in range(1, q + 1)]
    relabel = draw(st.permutations(range(q + 1)))
    edges = draw(st.permutations([(relabel[p], relabel[k + 1]) for k, p in enumerate(parents)]))
    gens = [
        Monomial.from_dict({v: 1 for v in range(q + 1) if v not in edge})
        for edge in edges
    ]
    # an unused variable lies in every complement facet
    n = q + 1 + draw(st.booleans())
    variables = Variables([f"x_{v}" for v in range(n)])
    og = ordered(gens, variables)
    # a joint of facet i is any earlier facet holding its meets with the
    # earlier facets; a vertex of degree three or more offers a choice
    joints = [0]
    for i in range(1, q):
        touched = frozenset().union(*(og.facets[i] & og.facets[h] for h in range(i)))
        joints.append(draw(st.sampled_from(
            [u for u in range(i) if touched <= og.facets[u]]
        )))
    if joints != list(og.joints):
        og = ordered(gens, variables, joints)
    return og, r


@st.composite
def squarefree_ideals(draw, max_gens):
    """A random minimally generated square-free monomial ideal, of any
    projective dimension: at most ``max_gens`` generators over at most
    six variables, maybe some unused.  Returns the generators and the
    variables."""
    n = draw(st.integers(1, 6))
    supports = [frozenset(s) for k in range(1, n + 1) for s in combinations(range(n), k)]
    drawn = draw(st.lists(st.sampled_from(supports), min_size=1, max_size=max_gens, unique=True))
    # keep the minimal supports, so that no generator divides another
    minimal = [s for s in drawn if not any(t < s for t in drawn)]
    gens = [Monomial.from_dict(dict.fromkeys(s, 1)) for s in minimal]
    return gens, Variables([f"x_{v}" for v in range(n)])


# fixed cases for the label and shift properties: the running example,
# the path on five vertices, and a star with an unused variable b whose
# third facet takes the second as its joint instead of the first
FIXED_CASES = [
    (ordered(*ideal(["x*y", "y*z", "z*u"])), 1),
    (ordered(*ideal(["x*y", "y*z", "z*u"])), 2),
    (ordered(*ideal(["z*u*v", "x*u*v", "x*y*v", "x*y*z"], "xyzuv")), 2),
    (ordered(*ideal(["c*d", "a*d", "a*c"], "abcd"), joints=[0, 0, 1]), 3),
]


def path_complement_ideal(q):
    """Generators over q+1 variables whose complement facets form the
    path {v_1,v_2}, {v_2,v_3}, ..., {v_q, v_q+1}: generator i is the
    product of every variable except v_i and v_i+1."""
    names = [chr(ord("a") + i) for i in range(q + 1)]
    variables = Variables(names)
    gens = [
        Monomial.from_dict({v: 1 for v in range(q + 1) if v not in (i, i + 1)})
        for i in range(q)
    ]
    return gens, variables


@pytest.fixture(scope="session")
def running():
    """The four-variable example (xy, yz, zu)."""
    gens, variables = ideal(["x*y", "y*z", "z*u"])
    return order_generators(gens, variables)


@pytest.fixture(scope="session")
def path4():
    """Four generators whose complement facets form a path on five
    vertices: (zuv, xuv, xyv, xyz)."""
    gens, variables = ideal(["z*u*v", "x*u*v", "x*y*v", "x*y*z"], "xyzuv")
    return order_generators(gens, variables)


@pytest.fixture(scope="session")
def star3():
    """Three generators whose complement facets are disjoint vertices;
    every joint is the first facet (a star tree)."""
    gens, variables = ideal(["c*d", "a*d", "a*c"])
    return order_generators(gens, variables)


@pytest.fixture(scope="session")
def pair2():
    gens, variables = ideal(["x*y", "y*z"])
    return order_generators(gens, variables)


@pytest.fixture(scope="session")
def single():
    gens, variables = ideal(["x*y*z"])
    return order_generators(gens, variables)


@pytest.fixture(scope="session")
def tetra_gens():
    """Not projective dimension one: complement facets form the boundary
    of a tetrahedron."""
    return ideal(["x*a", "x*b", "x*c", "x*d"])
