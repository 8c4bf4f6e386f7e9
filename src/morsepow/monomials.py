"""Exact monomial arithmetic over a fixed ordered variable list.

A monomial is an immutable sparse exponent map: a sorted tuple of
(variable index, positive exponent) pairs.  All arithmetic is exact
integer arithmetic; equality is structural and monomials hash, so they
can be used as dictionary keys and set members throughout the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import NonDivisible, ParseError


@dataclass(frozen=True)
class Variable:
    index: int
    name: str


class Variables:
    """An ordered list of distinct variable names."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ParseError(f"duplicate variable names in {names!r}")
        for n in names:
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", n):
                raise ParseError(f"invalid variable name {n!r}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        for i, n in enumerate(self.names):
            yield Variable(i, n)

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, Variables) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Variables({', '.join(self.names)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown variable {name!r}") from None

    def name(self, index: int) -> str:
        return self.names[index]


@dataclass(frozen=True)
class Monomial:
    """Sparse exponent vector; ``exps`` holds (index, exponent) pairs with
    exponent > 0, sorted by index."""

    exps: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(exponents: dict[int, int]) -> "Monomial":
        items = tuple(sorted((i, e) for i, e in exponents.items() if e != 0))
        for i, e in items:
            if e < 0 or i < 0:
                raise ValueError(f"bad exponent entry ({i}, {e})")
        return Monomial(items)

    def exponent(self, index: int) -> int:
        for i, e in self.exps:
            if i == index:
                return e
        return 0

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.exps)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def is_one(self) -> bool:
        return not self.exps

    # total order so that sets of monomials print and serialize deterministically
    def __lt__(self, other):
        return self.exps < other.exps

    def __le__(self, other):
        return self.exps <= other.exps

    def __gt__(self, other):
        return self.exps > other.exps

    def __ge__(self, other):
        return self.exps >= other.exps


ONE = Monomial(())


def lcm(m1: Monomial, m2: Monomial) -> Monomial:
    """Exponentwise maximum."""
    d = dict(m1.exps)
    for i, e in m2.exps:
        if d.get(i, 0) < e:
            d[i] = e
    return Monomial.from_dict(d)


def lcm_all(monomials) -> Monomial:
    out = ONE
    for m in monomials:
        out = lcm(out, m)
    return out


def divides(m1: Monomial, m2: Monomial) -> bool:
    """True iff every exponent of m1 is at most the matching exponent of m2."""
    d2 = dict(m2.exps)
    return all(d2.get(i, 0) >= e for i, e in m1.exps)


def mul(m1: Monomial, m2: Monomial) -> Monomial:
    d = dict(m1.exps)
    for i, e in m2.exps:
        d[i] = d.get(i, 0) + e
    return Monomial.from_dict(d)


def div_exact(m1: Monomial, m2: Monomial) -> Monomial:
    """Exponentwise difference m1 / m2; m2 must divide m1."""
    if not divides(m2, m1):
        raise NonDivisible(f"{m2} does not divide {m1}")
    d = dict(m1.exps)
    for i, e in m2.exps:
        d[i] -= e
    return Monomial.from_dict(d)


def is_squarefree(m: Monomial) -> bool:
    return all(e <= 1 for _, e in m.exps)


def squarefree_part(indices) -> Monomial:
    """The product of the variables with the given indices."""
    return Monomial.from_dict({i: 1 for i in indices})


_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_]*?)(?:\^([0-9]+))?$")
_COMPACT = re.compile(r"([A-Za-z])([0-9]*)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Split a monomial string into (name, exponent) factors.

    Two forms are accepted: the explicit form "x*y^2*z" (factors joined
    by '*', optional '^exponent', multi-letter names allowed, and any
    string with an '_', such as "x_0") and the compact form "xy2z"
    (single-letter names, digits bind to the preceding letter).  "1"
    denotes the unit monomial.
    """
    s = text.strip()
    if s in ("1", ""):
        return []
    if "*" in s or "^" in s or "_" in s:
        factors = []
        for part in s.split("*"):
            part = part.strip()
            m = _FACTOR.fullmatch(part)
            if m is None:
                raise ParseError(f"bad monomial factor {part!r} in {text!r}")
            name, exp = m.group(1), m.group(2)
            # trailing digits without '^' are an exponent: "y2" == "y^2"
            if exp is None and (m2 := re.fullmatch(r"([A-Za-z]+)([0-9]+)", part)):
                name, exp = m2.group(1), m2.group(2)
            factors.append((name, int(exp) if exp else 1))
        return factors
    pos = 0
    factors = []
    for m in _COMPACT.finditer(s):
        if m.start() != pos:
            raise ParseError(f"cannot parse monomial {text!r}")
        pos = m.end()
        factors.append((m.group(1), int(m.group(2)) if m.group(2) else 1))
    if pos != len(s):
        raise ParseError(f"cannot parse monomial {text!r}")
    return factors


def parse_monomial(text: str, variables: Variables) -> Monomial:
    """Parse a monomial over an already-fixed variable list."""
    d: dict[int, int] = {}
    for name, exp in _tokenize(text):
        i = variables.index(name)
        d[i] = d.get(i, 0) + exp
    return Monomial.from_dict(d)


def parse_generators(texts, variables: Variables | None = None):
    """Parse a list of monomial strings.

    When ``variables`` is None the variable list is inferred from the
    union of supports, in order of first appearance.  Returns
    (monomials, variables).
    """
    token_lists = [_tokenize(t) for t in texts]
    if variables is None:
        names: list[str] = []
        for tokens in token_lists:
            for name, _ in tokens:
                if name not in names:
                    names.append(name)
        variables = Variables(names)
    monomials = []
    for tokens in token_lists:
        d: dict[int, int] = {}
        for name, exp in tokens:
            i = variables.index(name)
            d[i] = d.get(i, 0) + exp
        monomials.append(Monomial.from_dict(d))
    return monomials, variables


def format_monomial(m: Monomial, variables: Variables) -> str:
    """Emit the explicit form, e.g. "x*y^2*z"; the unit monomial is "1"."""
    if m.is_one():
        return "1"
    parts = []
    for i, e in m.exps:
        name = variables.name(i)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)
