"""Gradient paths out of the single 2-cell of the running example.

The cell on (0,1,1) with moves at slots 2 and 3 attaches to four edges.
Two of them are literal subfaces; the other two are reached by gradient
paths, found by one search over face masks, and the canonical explicit
path is among them.  The path sum gives the Morse differential, which equals
the closed-form cube boundary the build uses, and whose square is zero.
"""

from morsepow import (
    CriticalCell,
    MorseComplex,
    PowerBasis,
    TaylorMatching,
    format_monomial,
    mul,
    order_generators,
    parse_generators,
)
from morsepow.monomials import bit_positions

gens, variables = parse_generators(["x*y", "y*z", "z*u"])
og = order_generators(gens, variables)
morse = MorseComplex(TaylorMatching(PowerBasis(og, 2)))
basis = morse.basis


def show(face):
    return "{" + ", ".join(str(basis.vectors[v]) for v in face) + "}"


cell = CriticalCell((0, 1, 1), (1, 2))  # moves at slots 2 and 3, 0-based
face = morse.cell_face(cell)
print("2-cell", show(face), "with label",
      format_monomial(morse.cell_lcm(cell), variables))

print("\nattached edges (closure):")
for sub in morse.closure_facets(cell):
    print(" ", show(morse.cell_face(sub)),
          "->", format_monomial(morse.cell_lcm(sub), variables))

# the search runs on face masks (bit v = vertex v); drop the top's bit
start = morse.cell_mask(cell) ^ 1 << basis.index_of[cell.a]
print("\ngradient paths out of", show(bit_positions(start)),
      "(the facet dropping the top):")
for end, paths in sorted(morse.gradient_paths(start, cap=1000).items()):
    for p in sorted(paths, key=lambda p: p.faces):
        chain = "  ->  ".join(show(f) for f in p.faces)
        print(f"  weight {morse.path_weight(p):+d}:  {chain}")

print("\nexplicit path for the move at slot 2 (0-based 1):")
explicit = morse.explicit_path(cell.a, cell.moves, 1)
print("  " + "  ->  ".join(show(f) for f in explicit.faces))

print("\nMorse differential of the 2-cell:")
for sub, coeff, shift in morse.differential(cell):
    print(f"  {coeff:+d} * {format_monomial(shift, variables):4} * "
          f"{show(morse.cell_face(sub))}")

print("\nequal to the closed-form cube boundary:",
      set(morse.differential(cell)) == set(morse.cube_boundary(cell)))

print("\nboundary of the boundary (must cancel):")
total = {}
for sub, c1, s1 in morse.differential(cell):
    for subsub, c2, s2 in morse.differential(sub):
        key = (subsub, mul(s1, s2))
        total[key] = total.get(key, 0) + c1 * c2
print("  all coefficients zero:", all(v == 0 for v in total.values()))
