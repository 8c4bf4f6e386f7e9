"""Seeded pd-1 ideals from random labelled trees.

A tree on the vertices 0..q is read as a facet complex whose facets are
its q edges; trees are quasi-forests, so the ideal whose complement
facets are those edges has projective dimension one.  Generator i is the
product of every variable except the endpoints of edge i.  The variable
of vertex k is named ``x_<k>``: compact names such as ``x1`` are read by
the parser as ``x`` to the first power (see NOTES.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    index: int
    shape: str
    q: int
    r: int
    generators: tuple[str, ...]


def _tree_edges(shape: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a tree on positions 0..n-1 in the given shape."""
    if shape == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "caterpillar":
        # legs go round-robin along the spine, so the shape (and with it
        # the cost of an op) does not depend on the seed
        spine = max(2, (n + 1) // 2)
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [((leg - spine) % spine, leg) for leg in range(spine, n)]
        return edges
    if shape == "uniform":
        prufer = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for v in prufer:
            degree[v] += 1
        edges = []
        for v in prufer:
            leaf = min(u for u in range(n) if degree[u] == 1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = (u for u in range(n) if degree[u] == 1)
        edges.append((u, w))
        return edges
    raise ValueError(f"unknown tree shape {shape!r}")


def tree_ideal(shape: str, q: int, rng: random.Random) -> tuple[str, ...]:
    """Generator strings of the pd-1 ideal of a random labelled tree with
    q edges, in shuffled order."""
    n = q + 1
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in _tree_edges(shape, n, rng)]
    rng.shuffle(edges)
    return tuple(
        "*".join(f"x_{k}" for k in range(n) if k not in edge) for edge in edges
    )


def make_instances(seed: int, shapes, count: int, q: int, r: int) -> list[Instance]:
    """``count`` instances with q edges each, cycling through ``shapes``."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        shape = shapes[i % len(shapes)]
        out.append(Instance(i, shape, q, r, tree_ideal(shape, q, rng)))
    return out
