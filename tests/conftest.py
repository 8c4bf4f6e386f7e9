import os
import pathlib
import warnings
from math import comb

import pytest
from hypothesis import strategies as st

from morsepow import (
    Monomial,
    Variables,
    order_generators,
    parse_generators,
)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """The environment with the checkout's src/ first on PYTHONPATH, for
    subprocesses that import the library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


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
