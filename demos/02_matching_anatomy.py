"""Anatomy of the acyclic matching on the Taylor complex of I^2.

A face is an int mask over the power generators (bit v = vertex v).
Every nonempty face is classified locally by its pivot: critical faces
sit inside the descent family of their largest vertex; every other face
is matched with the face that toggles its pivot vertex.  The brute-force
verifiers confirm the matching is a matching, acyclic, and
lcm-homogeneous.
"""

from morsepow import (
    PowerBasis,
    TaylorMatching,
    format_monomial,
    last_disagreement,
    order_generators,
    parse_generators,
)
from morsepow.monomials import bit_positions

gens, variables = parse_generators(["x*y", "y*z", "z*u"])
og = order_generators(gens, variables)
matching = TaylorMatching(PowerBasis(og, 2))
basis = matching.basis


def show(vertices):
    vs = ", ".join(str(basis.vectors[v]) for v in vertices)
    return "{" + vs + "}"


# classify one face by hand: the face on top of (1,0,1) containing
# everything colex-below it
sigma = sum(
    1 << basis.index_of[v] for v in [(1, 0, 1), (2, 0, 0), (0, 2, 0), (1, 1, 0)]
)
top = (sigma & -sigma).bit_length() - 1  # the lowest index is colex-largest
outside = [v for v in bit_positions(sigma) if v not in basis.family_indices(top)]
level = max(last_disagreement(basis.vectors[top], basis.vectors[v]) for v in outside)
p = matching.pivot(sigma)
print("face", show(bit_positions(sigma)))
print("  largest vertex:", basis.vectors[top])
print("  level (largest disagreement outside the family):", level)
print("  pivot vertex:", basis.vectors[p])
print("  matched", "down" if sigma >> p & 1 else "up",
      "with", show(bit_positions(sigma ^ 1 << p)))

# full classification: one pivot per face mask
classes = matching.classify()
faces = [f for f, _ in classes.faces()]
critical = sorted(classes.critical(), key=lambda f: (len(f), f))
pairs = classes.pairs()
print(f"\n{len(faces)} nonempty faces:"
      f" {len(critical)} critical, {len(pairs)} matched pairs")

by_dim = {}
for f in critical:
    by_dim.setdefault(len(f) - 1, []).append(f)
print("critical faces by dimension:",
      {d: len(fs) for d, fs in sorted(by_dim.items())})

print("\nthe critical 2-face and its label:")
for f in by_dim[2]:
    print(" ", show(f), "->", format_monomial(matching.face_lcm(f), variables))

print("\nverifying the matching properties:")
print("  is a matching:      ", classes.is_matching())
print("  acyclic:            ", classes.acyclic())
print("  lcm-homogeneous:    ", matching.homogeneous(classes))
